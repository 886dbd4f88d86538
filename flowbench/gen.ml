(* Workload inputs, made from the seed: the processes every host runs,
   which daemons are silent, the open-loop flow arrivals (simulated
   time), and the churn and reload events — each flow labelled with the
   oracle's verdict. The fixed fault probes at the start of every
   workload do not depend on the seed. *)

open Netcore
module W = World

type flow = {
  at : int;  (** ns after the measured phase starts *)
  src : int;  (** host index *)
  slot : int;  (** process slot on the source host *)
  dst : int;
  proto : Proto.t;
  dport : int;
  expect : bool;
  probe : int option;
      (** For a fixed fault probe flow, the deliveries of its first
          packet that the probe's named fault gives it. *)
  host_port : bool;
      (** The source port comes from the host's own ephemeral allocator
          rather than from the flow's index (see Runner.src_port). *)
  fail_closed : bool;
}

type event =
  | Respawn of { host : int; slot : int; proc : W.proc }
      (** The slot's process exits and a new one starts. *)
  | Reload of int  (** Replace the reload file with [World.reload_policy k]. *)

type t = {
  workload : W.name;
  procs : W.proc array array;  (** initial processes, by host and slot *)
  listen : (int * W.service) option array;  (** (slot, service) by host *)
  silent : bool array;
  flows : flow array;  (** sorted by [at] *)
  events : (int * event) array;  (** sorted by time (ns) *)
  policy : string;
  oracle : Oracle.policy;
}

let ms x = int_of_float (x *. 1e6)
let ip t i = t.Workload.Fabric.hosts.(i).Workload.Fabric.hs_ip

(* Zipf pick over a seeded permutation, so popularity does not follow
   host numbering. *)
let zipf prng perm = perm.(Workload.Flowgen.zipf_pick prng ~n:(Array.length perm))

let shuffled prng l =
  let a = Array.of_list l in
  Sim.Prng.shuffle prng a;
  a

(* Flow builder shared by the generators: computes the oracle facts
   from the plan as it stands when the flow starts. *)
let make_flow ~oracle ~fabric ~procs ~listen ~silent ~at ~src ~slot ~dst
    ~proto ~dport ~probe =
  let endpoint host user_app =
    if silent.(host) then Oracle.Silent
    else
      let user, app = user_app in
      Oracle.Answers { user; app; patched = W.patched host }
  in
  let p = procs.(src).(slot) in
  let dst_owner =
    match listen.(dst) with
    | Some (_, svc) when svc.W.port = dport && svc.W.proto = proto ->
        (Some svc.W.svc_user, Some svc.W.svc.W.app)
    | _ -> (None, None)
  in
  let facts =
    {
      Oracle.proto;
      dport;
      dst_ip = ip fabric dst;
      src = endpoint src (Some p.W.user, Some p.W.pexe.W.app);
      dst = endpoint dst dst_owner;
    }
  in
  let expect = Oracle.expect oracle facts in
  {
    at;
    src;
    slot;
    dst;
    proto;
    dport;
    expect;
    probe = (if probe then Some (if expect then 1 else 0) else None);
    host_port = false;
    fail_closed = Oracle.fail_closed oracle facts;
  }

(* The second flow of a probe pair whose fault hands it the first
   flow's answer: the fault gives it the first flow's verdict. *)
let gets_answer_of first second =
  { second with probe = Some (if first.expect then 1 else 0) }

let hosts_where fabric f =
  List.filter f (List.init (Array.length fabric.Workload.Fabric.hosts) Fun.id)

let servers fabric = hosts_where fabric W.is_server
let clients fabric = hosts_where fabric W.is_client

(* Server j (index order) and the service it offers in the enterprise
   workloads. *)
let enterprise_services fabric =
  List.mapi (fun j i -> (i, W.rotation.(j mod Array.length W.rotation)))
    (servers fabric)

let servers_of services svc =
  Array.of_list
    (List.filter_map (fun (i, s) -> if s == svc then Some i else None) services)

let sort_flows l =
  let a = Array.of_list l in
  Array.stable_sort (fun a b -> compare a.at b.at) a;
  a

(* --- cold-signed ----------------------------------------------------- *)

let cold_flows = 2000
let cold_rate = 4000.
let cold_start = 20. (* ms; the fault probes run before *)

let cold_signed ?(flows = cold_flows) ~scale ~seed fabric =
  let prng = Sim.Prng.create seed in
  let n = Array.length fabric.Workload.Fabric.hosts in
  let services = enterprise_services fabric in
  let procs = Array.make n [||] and listen = Array.make n None in
  List.iter
    (fun (i, svc) ->
      procs.(i) <- [| { W.user = svc.W.svc_user; pexe = svc.W.svc } |];
      listen.(i) <- Some (0, svc))
    services;
  List.iter
    (fun i ->
      procs.(i) <-
        Array.map (fun a -> { W.user = W.user_of i; pexe = a.W.exe }) W.client_apps)
    (clients fabric);
  (* The probe pair: two hosts' firefox, both talking to the probe
     webserver. *)
  procs.(W.probe_client) <- [| { W.user = "alice"; pexe = W.firefox } |];
  procs.(W.probe_peer) <- [| { W.user = "bob"; pexe = W.firefox } |];
  procs.(W.probe_server) <- [| { W.user = "system"; pexe = W.httpd } |];
  listen.(W.probe_server) <- Some (0, W.web);
  let silent = Array.make n false in
  let important = fst (List.hd services) in
  let oracle = Oracle.Enterprise { important = ip fabric important } in
  (* Fixed probes: both hosts open a flow to the probe server in the
     same instant, in alternating order, each from its own first free
     ephemeral port — the same number on both hosts. The fault can
     hand one flow's server answer to the other and leave that one to
     time out into a deny. *)
  let probes =
    List.concat
      (List.init 4 (fun k ->
           let at = ms (1. +. (4. *. float_of_int k)) in
           let order =
             if k mod 2 = 0 then [ W.probe_client; W.probe_peer ]
             else [ W.probe_peer; W.probe_client ]
           in
           List.map
             (fun src ->
               let f =
                 make_flow ~oracle ~fabric ~procs ~listen ~silent ~at ~src
                   ~slot:0 ~dst:W.probe_server ~proto:Proto.Tcp ~dport:80
                   ~probe:true
               in
               { f with probe = Some 0; host_port = true })
             order))
  in
  let clients = Array.of_list (clients fabric) in
  let t = ref cold_start in
  let flows =
    List.init flows (fun _ ->
        t := !t +. (Sim.Prng.exponential prng ~mean:(1. /. (cold_rate *. scale)) *. 1e3);
        let src = Sim.Prng.pick prng clients in
        let app = W.pick_app prng in
        let slot = ref 0 in
        Array.iteri (fun k a -> if a == app then slot := k) W.client_apps;
        let dst = Sim.Prng.pick prng (servers_of services app.W.target) in
        make_flow ~oracle ~fabric ~procs ~listen ~silent
          ~at:(ms !t) ~src ~slot:!slot ~dst
          ~proto:app.W.target.W.proto ~dport:app.W.target.W.port ~probe:false)
  in
  {
    workload = W.Cold_signed;
    procs;
    listen;
    silent;
    flows = sort_flows (probes @ flows);
    events = [||];
    policy = W.enterprise_policy ~important:(ip fabric important) ();
    oracle;
  }

(* --- warm-churn ------------------------------------------------------ *)

let warm_flows = 6000
let warm_rate = 5000. (* flows/s inside an active window *)
let warm_epoch = 60. (* ms *)
let warm_active = 40. (* ms; the rest of the epoch is quiet *)
let warm_start = 20. (* ms; the fault probes run before *)
let warm_churn_per_epoch = 3
let warm_reload_every = 3 (* epochs *)
let warm_silent = 6


(* [l] is newest first; events at one instant keep the order they were
   made in, which is the order the oracle's plan followed. *)
let sort_events l =
  let a = Array.of_list (List.rev l) in
  Array.stable_sort (fun (a, _) (b, _) -> compare a b) a;
  a

let warm_churn ~scale ~seed fabric =
  let prng = Sim.Prng.create seed in
  let n = Array.length fabric.Workload.Fabric.hosts in
  let services = enterprise_services fabric in
  let procs = Array.make n [||] and listen = Array.make n None in
  List.iter
    (fun (i, svc) ->
      procs.(i) <- [| { W.user = svc.W.svc_user; pexe = svc.W.svc } |];
      listen.(i) <- Some (0, svc))
    services;
  let client_list = clients fabric in
  (* Every client runs one application, dealt from the deck in a
     seeded order: which client runs what depends on the seed, the mix
     does not. *)
  let current = Array.make n W.client_apps.(0) in
  Array.iteri
    (fun k i ->
      let app = W.app_deck.(k mod Array.length W.app_deck) in
      current.(i) <- app;
      procs.(i) <- [| { W.user = W.user_of i; pexe = app.W.exe } |])
    (shuffled prng client_list);
  (* The probe pair: two users' processes on one host, one approved
     application and one not, both talking to the probe webserver. *)
  procs.(W.probe_client) <-
    [|
      { W.user = "alice"; pexe = W.firefox };
      { W.user = "mallory"; pexe = W.miner };
      { W.user = "operator"; pexe = W.helper };
    |];
  procs.(W.probe_server) <- [| { W.user = "system"; pexe = W.httpd } |];
  listen.(W.probe_server) <- Some (0, W.web);
  (* [plan] follows the churn as generation walks forward in time;
     [procs] stays the initial placement. *)
  let plan = Array.map Array.copy procs in
  let clients = shuffled prng client_list in
  let silent = Array.make n false in
  Array.iteri (fun k c -> if k < warm_silent then silent.(c) <- true) clients;
  Sim.Prng.shuffle prng clients;
  let important = fst (List.hd services) in
  let oracle = Oracle.Enterprise { important = ip fabric important } in
  let by_service =
    List.map
      (fun s ->
        let a = Array.copy (servers_of services s) in
        Sim.Prng.shuffle prng a;
        (s, a))
      (List.sort_uniq compare (Array.to_list W.rotation))
  in
  let flows = ref [] and events = ref [] in
  let flow ~at ~src ~slot ~dst ~proto ~dport ~probe =
    flows :=
      make_flow ~oracle ~fabric ~procs:plan ~listen ~silent ~at ~src ~slot ~dst
        ~proto ~dport ~probe
      :: !flows
  in
  (* Fixed probes: invalidate the probe client's cached answer (a
     helper process restarts), start one process's flow, then the other
     process's flow once the first answer is cached. *)
  for k = 0 to 3 do
    let t0 = 1. +. (4. *. float_of_int k) in
    events :=
      ( ms t0,
        Respawn
          { host = W.probe_client; slot = 2; proc = procs.(W.probe_client).(2) }
      )
      :: !events;
    let first, second = if k mod 2 = 0 then (0, 1) else (1, 0) in
    let probe dt slot =
      make_flow ~oracle ~fabric ~procs:plan ~listen ~silent ~at:(ms (t0 +. dt))
        ~src:W.probe_client ~slot ~dst:W.probe_server ~proto:Proto.Tcp
        ~dport:80 ~probe:true
    in
    let first = probe 0.5 first in
    flows := gets_answer_of first (probe 2. second) :: first :: !flows
  done;
  let t = ref 0. and epoch = ref 0 in
  for _ = 1 to warm_flows do
    t := !t +. (Sim.Prng.exponential prng ~mean:(1. /. (warm_rate *. scale)) *. 1e3);
    (* Past the active window: the quiet gap that follows carries
       process churn and, every few epochs, a policy reload; the next
       epoch starts with popularity drawn afresh. *)
    while !t >= warm_active do
      t := !t -. warm_active;
      let boundary =
        warm_start
        +. (warm_epoch *. float_of_int !epoch)
        +. warm_active
        +. ((warm_epoch -. warm_active) /. 2.)
      in
      (* Clients running pairwise different applications pass them
         round: each respawns with another application, and the mix
         stays the deck's. *)
      let rec group acc =
        if List.length acc = warm_churn_per_epoch then acc
        else
          let c = Sim.Prng.pick prng clients in
          if List.exists (fun d -> current.(d) == current.(c)) acc then group acc
          else group (c :: acc)
      in
      let group = Array.of_list (group []) in
      let apps = Array.map (fun c -> current.(c)) group in
      Array.iteri
        (fun k c ->
          let app = apps.((k + 1) mod Array.length apps) in
          current.(c) <- app;
          let proc = { W.user = W.user_of c; pexe = app.W.exe } in
          plan.(c).(0) <- proc;
          events := (ms boundary, Respawn { host = c; slot = 0; proc }) :: !events)
        group;
      if !epoch mod warm_reload_every = 0 then
        events := (ms boundary, Reload (!epoch / warm_reload_every)) :: !events;
      Sim.Prng.shuffle prng clients;
      List.iter (fun (_, a) -> Sim.Prng.shuffle prng a) by_service;
      incr epoch
    done;
    let at = ms (warm_start +. (warm_epoch *. float_of_int !epoch) +. !t) in
    let src = zipf prng clients in
    let app = current.(src) in
    let r = Sim.Prng.int prng 100 in
    let svc, dport =
      if r < 10 then (W.dns, 53)
      else if r < 16 then (W.shell, 23)
      else (app.W.target, app.W.target.W.port)
    in
    let proto = if dport = 53 then Proto.Udp else Proto.Tcp in
    flow ~at ~src ~slot:0
      ~dst:(zipf prng (List.assq svc by_service))
      ~proto ~dport ~probe:false
  done;
  {
    workload = W.Warm_churn;
    procs;
    listen;
    silent;
    flows = sort_flows !flows;
    events = sort_events !events;
    policy = W.enterprise_policy ~important:(ip fabric important) ();
    oracle;
  }

(* --- scan-storm ------------------------------------------------------ *)

let scan_legit = 4800
let scan_rate = 10000.
let scan_worms = 8 (* one per pod of the k=8 fat-tree *)
let scan_bursts = 8
let scan_burst_len = 50
let scan_gap = 0.04 (* ms between one worm's probes *)
let scan_start = 20.
let scan_span = 460. (* ms over which bursts start *)
let scan_silent = 3
let scan_popularity = 5. (* ms a destination popularity lasts *)

let scan_storm ~scale ~seed ~policy fabric =
  let prng = Sim.Prng.create seed in
  let n = Array.length fabric.Workload.Fabric.hosts in
  let procs = Array.make n [||] and listen = Array.make n None in
  let server_list = servers fabric and client_list = clients fabric in
  List.iter
    (fun i ->
      procs.(i) <- [| { W.user = "system"; pexe = W.smbd } |];
      listen.(i) <- Some (0, W.files))
    server_list;
  (* One compromised client per pod: the deny entries of a worm's
     probes pile up at its edge switch, so worms sharing a switch would
     make the table work depend on the seed's placement. *)
  let pod i = i / (Array.length fabric.Workload.Fabric.hosts / scan_worms) in
  let clients = shuffled prng client_list in
  let worms =
    Array.init scan_worms (fun p ->
        List.find (fun i -> pod i = p) (Array.to_list clients))
  in
  Array.iter
    (fun i ->
      let pexe = if Array.mem i worms then W.worm else W.firefox in
      procs.(i) <- [| { W.user = W.user_of i; pexe } |])
    clients;
  let clients =
    Array.of_list (List.filter (fun i -> not (Array.mem i worms)) (Array.to_list clients))
  in
  (* The probe host runs a system service and a user's process side by
     side; the probe server is a patched Server. *)
  procs.(W.probe_client) <-
    [| { W.user = "system"; pexe = W.smbd }; { W.user = "mallory"; pexe = W.firefox } |];
  procs.(W.probe_server) <- [| { W.user = "system"; pexe = W.smbd } |];
  listen.(W.probe_server) <- Some (0, W.files);
  let silent = Array.make n false in
  let servers = shuffled prng server_list in
  for k = 0 to scan_silent - 1 do
    silent.(servers.(k)) <- true;
    silent.(clients.(k)) <- true
  done;
  Sim.Prng.shuffle prng servers;
  let oracle = Oracle.Figure8 in
  let flows = ref [] in
  let make ~at ~src ~slot ~dst ~probe =
    make_flow ~oracle ~fabric ~procs ~listen ~silent ~at ~src ~slot ~dst
      ~proto:Proto.Tcp ~dport:445 ~probe
  in
  let flow ~at ~src ~slot ~dst ~probe =
    flows := make ~at ~src ~slot ~dst ~probe :: !flows
  in
  (* Fixed probes: both processes of the probe host open a flow to the
     probe server in the same instant, in alternating order. *)
  for k = 0 to 3 do
    let at = ms (1. +. (4. *. float_of_int k)) in
    let a, b = if k mod 2 = 0 then (0, 1) else (1, 0) in
    let probe slot = make ~at ~src:W.probe_client ~slot ~dst:W.probe_server ~probe:true in
    let first = probe a in
    (* Listed first, so injected first within the instant. *)
    flows := first :: gets_answer_of first (probe b) :: !flows
  done;
  let t = ref scan_start and popularity = ref (scan_start +. scan_popularity) in
  for _ = 1 to scan_legit do
    t := !t +. (Sim.Prng.exponential prng ~mean:(1. /. (scan_rate *. scale)) *. 1e3);
    while !t >= !popularity do
      Sim.Prng.shuffle prng servers;
      popularity := !popularity +. scan_popularity
    done;
    let src = Sim.Prng.pick prng servers in
    let rec dst () =
      let d = zipf prng servers in
      if d = src then dst () else d
    in
    flow ~at:(ms !t) ~src ~slot:0 ~dst:(dst ()) ~probe:false
  done;
  let targets =
    hosts_where fabric (fun i -> not (W.is_probe i))
  in
  Array.iter
    (fun w ->
      for _ = 1 to scan_bursts do
        let start = scan_start +. Sim.Prng.float prng (scan_span /. scale) in
        let victims = shuffled prng (List.filter (fun i -> i <> w) targets) in
        for j = 0 to scan_burst_len - 1 do
          flow
            ~at:(ms (start +. (scan_gap /. scale *. float_of_int j)))
            ~src:w ~slot:0 ~dst:victims.(j) ~probe:false
        done
      done)
    worms;
  {
    workload = W.Scan_storm;
    procs;
    listen;
    silent;
    flows = sort_flows !flows;
    events = [||];
    policy;
    oracle;
  }

(* [flows] overrides the flow count of cold-signed, and [scale]
   multiplies every arrival rate (the Poisson rates, the worms' probe
   rate and the rate at which their bursts start); the reference
   figures of README.md vary them. *)
let make ?flows ?(scale = 1.) workload ~seed =
  let fabric = W.build_fabric () in
  match workload with
  | W.Cold_signed -> cold_signed ?flows ~scale ~seed fabric
  | W.Warm_churn -> warm_churn ~scale ~seed fabric
  | W.Scan_storm ->
      scan_storm ~scale ~seed ~policy:Policy_files.user_rules fabric
