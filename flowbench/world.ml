(* The benchmark's world: one k=8 fat-tree fabric (128 hosts), one host
   population, and the per-workload process placement, daemon
   configuration, policy and controller configuration built on it.

   Host roles, by placement index i (pod-major, four hosts per edge
   switch):
   - i mod 4 = 0, i <> 124: a server, one per edge switch (31);
   - i = 124: the probe server, 125: the probe client, 126: the probe
     peer — the fixed fault probes use them and seeded traffic never
     touches them;
   - every other host is a client (94). *)

open Netcore
module C = Identxx_core.Controller

type name = Cold_signed | Warm_churn | Scan_storm

let names =
  [ ("cold-signed", Cold_signed); ("warm-churn", Warm_churn);
    ("scan-storm", Scan_storm) ]

let to_string n = fst (List.find (fun (_, m) -> m = n) names)
let fabric_spec = Workload.Fabric.Fat_tree { k = 8 }

(* The fabric with its cable plan: every link gets its own propagation
   delay, 2-20 us, drawn from a fixed generator (not the workload seed),
   so all workloads and seeds share one fabric and first-packet delays
   spread with the path a flow takes. *)
let build_fabric () =
  let fabric = Workload.Fabric.build fabric_spec in
  let topo = fabric.Workload.Fabric.topology in
  let prng = Sim.Prng.create 2009 in
  List.iter
    (fun (l : Openflow.Topology.link) ->
      let ep (e : Openflow.Topology.endpoint) =
        (e.Openflow.Topology.node, e.Openflow.Topology.port)
      in
      Openflow.Topology.unlink topo (ep l.Openflow.Topology.a);
      Openflow.Topology.link topo
        ~latency:(Sim.Time.ns (2_000 + Sim.Prng.int prng 18_000))
        (ep l.Openflow.Topology.a) (ep l.Openflow.Topology.b))
    (Openflow.Topology.links topo);
  fabric
let probe_server = 124
let probe_client = 125
let probe_peer = 126
let is_probe i = i = probe_server || i = probe_client || i = probe_peer
let is_server i = i mod 4 = 0 && not (is_probe i)
let is_client i = i mod 4 <> 0 && not (is_probe i)

(* A program image: where it lives, and the [name] the site's daemon
   configuration gives it. *)
type exe = { path : string; app : string }

let httpd = { path = "/usr/sbin/httpd"; app = "httpd" }
let sshd = { path = "/usr/sbin/sshd"; app = "sshd" }
let imapd = { path = "/usr/sbin/imapd"; app = "imapd" }
let sipd = { path = "/usr/sbin/sipd"; app = "sipd" }
let smbd = { path = "/usr/sbin/smbd"; app = "Server" }
let pool = { path = "/srv/pool/poold"; app = "poold" }
let unbound = { path = "/usr/sbin/unbound"; app = "unbound" }
let firefox = { path = "/usr/bin/firefox"; app = "firefox" }
let ssh = { path = "/usr/bin/ssh"; app = "ssh" }
let thunderbird = { path = "/usr/bin/thunderbird"; app = "thunderbird" }
let skype = { path = "/usr/bin/skype"; app = "skype" }
let smbclient = { path = "/usr/bin/smbclient"; app = "smbclient" }
let miner = { path = "/srv/miner"; app = "miner" }
let helper = { path = "/usr/libexec/helper"; app = "helper" }

(* The worm ships its own binary under the service's path, so the site
   configuration names it Server too; only its user gives it away. *)
let worm = { path = "/usr/sbin/smbd"; app = "Server" }

let catalog =
  [ httpd; sshd; imapd; sipd; smbd; pool; unbound; firefox; ssh; thunderbird;
    skype; smbclient; miner; helper ]

(* A listening service: one per server host. *)
type service = { svc : exe; port : int; proto : Proto.t; svc_user : string }

let web = { svc = httpd; port = 80; proto = Proto.Tcp; svc_user = "system" }
let shell = { svc = sshd; port = 22; proto = Proto.Tcp; svc_user = "system" }
let mail = { svc = imapd; port = 143; proto = Proto.Tcp; svc_user = "system" }
let voip = { svc = sipd; port = 5060; proto = Proto.Tcp; svc_user = "system" }
let files = { svc = smbd; port = 445; proto = Proto.Tcp; svc_user = "system" }
let mining = { svc = pool; port = 8333; proto = Proto.Tcp; svc_user = "nobody" }
let dns = { svc = unbound; port = 53; proto = Proto.Udp; svc_user = "system" }

(* Server j (in index order) offers service [rotation.(j mod 8)]. *)
let rotation = [| web; shell; mail; web; voip; files; mining; dns |]

(* A client application and the service its flows go to. Skype talks
   on port 80 — the paper's §1 port-aliasing example. *)
type app = { exe : exe; target : service; weight : int }

let client_apps =
  [|
    { exe = firefox; target = web; weight = 3 };
    { exe = ssh; target = shell; weight = 2 };
    { exe = thunderbird; target = mail; weight = 2 };
    { exe = skype; target = web; weight = 2 };
    { exe = smbclient; target = files; weight = 1 };
    { exe = miner; target = mining; weight = 1 };
  |]

let pick_app prng =
  let total = Array.fold_left (fun a x -> a + x.weight) 0 client_apps in
  let r = ref (Sim.Prng.int prng total) and i = ref 0 in
  while !r >= client_apps.(!i).weight do
    r := !r - client_apps.(!i).weight;
    incr i
  done;
  client_apps.(!i)

(* The applications, each as many times as its weight. Dealing clients
   from it in turn gives every seed the same application mix. *)
let app_deck =
  Array.concat
    (Array.to_list (Array.map (fun a -> Array.make a.weight a) client_apps))

(* A process to run: who, and which program. *)
type proc = { user : string; pexe : exe }

let user_of i = Printf.sprintf "u%d" i

(* Every fourth-or-so server runs without the MS08-067 patch. *)
let patched i = (i / 4) mod 5 <> 2

(* --- policies ---------------------------------------------------------- *)

let allowed_apps = [ "firefox"; "ssh"; "thunderbird"; "skype"; "smbclient" ]

(* The site policy of cold-signed and warm-churn: a telnet quick block
   (precompiled into the switches), DNS passed on network fields alone,
   approved applications to system-run services, and skype kept off
   the important webserver. *)
let enterprise_policy ?(allowed = allowed_apps) ?(guard = true) ~important ()
    =
  Printf.sprintf
    "# Site policy: approved applications to system services only.\n\
     table <lan> { 10.0.0.0/8 }\n\
     table <important> { %s }\n\
     allowed = \"{ %s }\"\n\
     block quick proto tcp from any to any port 23\n\
     block all\n\
     pass proto udp from <lan> to <lan> port 53\n\
     pass from <lan> to <lan> with member(@src[name], $allowed) with \
     eq(@dst[userID], system)\n%s"
    (Ipv4.to_string important)
    (String.concat " " allowed)
    (if guard then "block from any to <important> with eq(@src[name], skype)\n"
     else "")

(* The policy reloads of warm-churn: a block on a port no generated flow
   uses, so every reload bumps the epoch and recompiles a delta but
   changes no verdict. *)
let reload_port k = 9000 + (k mod 64)

let reload_policy k =
  Printf.sprintf "block proto tcp from any to any port %d\n" (reload_port k)

(* Every daemon's signing key (used by cold-signed). *)
let host_key name = Idcrypto.Sign.generate ~seed:"flowbench" name

(* --- daemon configuration --------------------------------------------- *)

let daemon_config ~patched =
  let b = Buffer.create 1024 in
  Buffer.add_string b "# Site image: host-wide pairs and named applications.\n";
  Printf.bprintf b "os-patch : %s\n"
    (if patched then "MS08-001,MS08-067" else "MS08-001");
  List.iter
    (fun e -> Printf.bprintf b "@app %s {\nname : %s\n}\n" e.path e.app)
    (List.sort_uniq compare catalog);
  Buffer.contents b

(* --- controller configuration ----------------------------------------- *)

let controller_config = function
  | Cold_signed -> { C.default_config with C.require_signed_responses = true }
  | Warm_churn ->
      {
        C.default_config with
        C.fastpath = Fastpath.default_config;
        proactive = true;
        entry_idle_timeout = Some (Sim.Time.ms 200);
      }
  | Scan_storm ->
      {
        C.default_config with
        C.shards = Some (C.sharded ~service:(Sim.Time.us 8) ~coalesce:true 4);
      }
