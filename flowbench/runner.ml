(* One round of a workload: stand the whole stack up from the generated
   inputs (the set-up phase), inject every flow on its open-loop
   schedule and run the simulation until it drains (the measured
   phase), then check every flow against the oracle. Rounds share
   nothing but the inputs, so every round of a run does the same work. *)

open Netcore
module W = World
module C = Identxx_core.Controller
module PS = Identxx_core.Policy_store
module Net = Openflow.Network
module Fabric = Workload.Fabric
module Tuple_tbl = Hashtbl.Make (Five_tuple)

type world = {
  inputs : Gen.t;
  engine : Sim.Engine.t;
  fabric : Fabric.t;
  network : Net.t;
  controller : C.t;
  hosts : Identxx.Host.t array;
  procs : Identxx.Process_table.process array array;
  obs : Obs.Registry.t;
  recorder : Obs.Recorder.t;
  spans : Obs.Span.t;
  by_tuple : int Tuple_tbl.t;
  sent : int array;  (** sim ns at which each flow's first packet left *)
  first : int array;  (** sim ns of its first delivery *)
  count : int array;  (** deliveries of its first packet *)
  mutable start : Sim.Time.t;  (** sim time the measured phase began *)
  mutable table_peak : int;
  tracer : Tracer.t option;
}

let sim_clock engine () = Sim.Time.to_float_s (Sim.Engine.now engine)
let health_interval = 0.01

let switches fabric =
  List.concat_map (fun t -> t.Fabric.tier_dpids) fabric.Fabric.tiers

let sample_tables w =
  List.iter
    (fun dpid ->
      let n =
        Openflow.Flow_table.size
          (Openflow.Switch.table (Net.switch w.network dpid))
      in
      if n > w.table_peak then w.table_peak <- n)
    (switches w.fabric)

(* A data packet reached host [i]: credit the flow it belongs to. *)
let on_delivery w i pkt =
  (match w.tracer with Some tr -> Tracer.sample_frame tr pkt | None -> ());
  match Packet.five_tuple pkt with
  | None -> ()
  | Some tuple -> (
      match Tuple_tbl.find_opt w.by_tuple tuple with
      | Some j when w.inputs.Gen.flows.(j).Gen.dst = i ->
          if w.count.(j) = 0 then
            w.first.(j) <- Sim.Time.to_ns (Sim.Engine.now w.engine);
          w.count.(j) <- w.count.(j) + 1
      | Some _ | None -> ())

let spawn host (p : W.proc) =
  Identxx.Host.run host ~user:p.W.user ~exe:p.W.pexe.W.path ()

(* --- set-up ---------------------------------------------------------- *)

let stand_up ?tracer (inputs : Gen.t) =
  let workload = inputs.Gen.workload in
  let engine = Sim.Engine.create () in
  let fabric = W.build_fabric () in
  let network = Net.create ~engine ~topology:fabric.Fabric.topology () in
  let monitored = workload = W.Scan_storm in
  let obs = Obs.Registry.create () in
  let recorder =
    if monitored then Obs.Recorder.create ~capacity:4096 () else Obs.Recorder.null
  in
  let spans =
    if monitored then begin
      let s = Obs.Span.create ~capacity:1024 () in
      Obs.Span.set_sample_rate s 0.01;
      s
    end
    else Obs.Span.create ~enabled:false ()
  in
  let signed = workload = W.Cold_signed in
  let keys =
    if signed then Array.map (fun hs -> W.host_key hs.Fabric.hs_name) fabric.Fabric.hosts
    else [||]
  in
  let keystore = Idcrypto.Sign.keystore () in
  Array.iter (Idcrypto.Sign.register keystore) keys;
  let controller =
    C.create ~config:(W.controller_config workload) ~keystore ~obs ~spans
      ~recorder ~network ~id:0 ()
  in
  let hosts =
    Array.mapi
      (fun i hs ->
        let behaviour =
          if inputs.Gen.silent.(i) then Identxx.Daemon.Silent
          else Identxx.Daemon.Honest
        in
        Identxx.Host.create ~behaviour ~name:hs.Fabric.hs_name
          ~mac:hs.Fabric.hs_mac ~ip:hs.Fabric.hs_ip ())
      fabric.Fabric.hosts
  in
  let procs =
    Array.mapi
      (fun i h ->
        (match
           Identxx.Daemon.load_config (Identxx.Host.daemon h) ~name:"00-site"
             (W.daemon_config ~patched:(W.patched i))
         with
        | Ok () -> ()
        | Error e -> failwith ("daemon config: " ^ e));
        List.iter
          (fun e ->
            Identxx.Host.install_exe h ~path:e.W.path ~content:("image " ^ e.W.path))
          W.catalog;
        if signed then Identxx.Host.set_signing_key h (Some keys.(i));
        if monitored then
          Identxx.Host.set_metrics h ~clock:(sim_clock engine) obs;
        let ps = Array.map (spawn h) inputs.Gen.procs.(i) in
        (match inputs.Gen.listen.(i) with
        | Some (slot, svc) ->
            Identxx.Host.listen h ~proc:ps.(slot) ~port:svc.W.port
              ~proto:svc.W.proto ()
        | None -> ());
        ps)
      hosts
  in
  let n = Array.length inputs.Gen.flows in
  let w =
    {
      inputs;
      engine;
      fabric;
      network;
      controller;
      hosts;
      procs;
      obs;
      recorder;
      spans;
      by_tuple = Tuple_tbl.create (2 * n);
      sent = Array.make n 0;
      first = Array.make n 0;
      count = Array.make n 0;
      start = Sim.Time.zero;
      table_peak = 0;
      tracer;
    }
  in
  Array.iteri
    (fun i h ->
      let name = Identxx.Host.name h in
      let handle pkt =
        match Identxx.Host.handle_packet h pkt with
        | Some response -> Net.send_from_host network ~name response
        | None -> on_delivery w i pkt
      in
      let rx =
        match tracer with
        | None -> handle
        | Some tr ->
            fun pkt -> Tracer.around tr Tracer.Host (Packet.five_tuple pkt) handle pkt
      in
      Net.attach_host network ~name ~mac:(Identxx.Host.mac h)
        ~ip:(Identxx.Host.ip h) ~rx;
      Identxx_core.Deploy.watch_host controller h)
    hosts;
  (match tracer with
  | None -> ()
  | Some tr ->
      Net.register_controller network ~id:0 (fun msg ->
          let key =
            match msg with
            | Openflow.Message.Packet_in pi ->
                Packet.five_tuple pi.Openflow.Message.packet
            | Openflow.Message.Stats_reply _ -> None
          in
          Tracer.around tr Tracer.Core key (C.handle_message controller) msg));
  let policy = C.policy controller in
  (match PS.add policy ~name:"00-site" inputs.Gen.policy with
  | Ok () -> ()
  | Error e -> failwith ("policy: " ^ e));
  if workload = W.Warm_churn then PS.add_exn policy ~name:"90-reload" (W.reload_policy 0);
  (* Let the precompiled and proactive flow-mods land: deployed
     switches hold their tables before traffic starts. *)
  Sim.Engine.run engine;
  w.start <- Sim.Engine.now engine;
  if monitored then begin
    let window = Obs.Window.create ~interval:health_interval ~now:0. obs in
    let health = Obs.Health.create ~recorder ~spans ~registry:obs window in
    let last = inputs.Gen.flows.(n - 1).Gen.at in
    let closes = (last / 10_000_000) + 4 in
    for k = 1 to closes do
      let at = Sim.Time.add w.start (Sim.Time.ms (10 * k)) in
      Sim.Engine.schedule_at engine ~at (fun () ->
          ignore
            (Obs.Health.force_step health ~now:(Sim.Time.to_float_s at)))
    done
  end;
  w

(* --- the measured phase ---------------------------------------------- *)

let at w ns = Sim.Time.add w.start (Sim.Time.ns ns)

(* Every seeded connection of a round gets its own source port. The
   hosts' own ephemeral allocator starts every host at the same port,
   and the controller pairs a daemon response with a pending flow by
   protocol, ports and one end's address, so two concurrent flows to
   one server from the same port number can be answered crosswise. How
   often that happens depends on the seed; the fixed pairing probe of
   cold-signed keeps the hosts' allocator and shows the fault every
   round (see README.md, "Known faults"). *)
let src_port i = 10000 + i

(* Extra work run with every injection; nothing unless the estimator
   is being checked (main.ml, --extra-spin and --extra-alloc). *)
let per_flow = ref ignore

let inject w i =
  !per_flow ();
  let f = w.inputs.Gen.flows.(i) in
  let h = w.hosts.(f.Gen.src) in
  let tuple =
    Identxx.Host.connect h
      ~proc:w.procs.(f.Gen.src).(f.Gen.slot)
      ~dst:(Identxx.Host.ip w.hosts.(f.Gen.dst))
      ?src_port:(if f.Gen.host_port then None else Some (src_port i))
      ~dst_port:f.Gen.dport ~proto:f.Gen.proto ()
  in
  Tuple_tbl.replace w.by_tuple tuple i;
  w.sent.(i) <- Sim.Time.to_ns (Sim.Engine.now w.engine);
  Net.send_from_host w.network ~name:(Identxx.Host.name h)
    (Identxx.Host.first_packet h ~flow:tuple)

let apply_event w = function
  | Gen.Respawn { host; slot; proc } ->
      let h = w.hosts.(host) in
      Identxx.Process_table.kill (Identxx.Host.processes h)
        ~pid:w.procs.(host).(slot).Identxx.Process_table.pid;
      w.procs.(host).(slot) <- spawn h proc
  | Gen.Reload k ->
      PS.add_exn (C.policy w.controller) ~name:"90-reload" (W.reload_policy (k + 1))

(* Flow-table sizes are sampled every this many injections. *)
let sample_every = 256

(* The measured phase runs the engine in slices of this many events. *)
let slice = 400

(* Inject every flow on schedule and run until the simulation drains.
   [between] runs after every slice, outside the measurement, and is
   given the slice's CPU seconds. Returns the CPU seconds and minor-heap
   words of the engine's work. *)
let run ?(between = ignore) w =
  let flows = w.inputs.Gen.flows in
  let n = Array.length flows in
  Array.iter
    (fun (t, ev) ->
      Sim.Engine.schedule_at w.engine ~at:(at w t) (fun () -> apply_event w ev))
    w.inputs.Gen.events;
  let rec chain i =
    inject w i;
    if i mod sample_every = sample_every - 1 then sample_tables w;
    if i + 1 < n then
      Sim.Engine.schedule_at w.engine ~at:(at w flows.(i + 1).Gen.at) (fun () ->
          chain (i + 1))
  in
  Sim.Engine.schedule_at w.engine ~at:(at w flows.(0).Gen.at) (fun () -> chain 0);
  let cpu = ref 0. and words = ref 0. in
  let measure f =
    let m0 = Gc.minor_words () and c0 = Sys.time () in
    f ();
    let c1 = Sys.time () and m1 = Gc.minor_words () in
    cpu := !cpu +. (c1 -. c0);
    words := !words +. (m1 -. m0);
    c1 -. c0
  in
  let run_slice =
    match w.tracer with
    | None -> fun () -> Sim.Engine.run ~max_events:slice w.engine
    | Some tr ->
        fun () ->
          let k = ref 0 in
          while !k < slice && Tracer.step tr w.engine do
            incr k
          done
  in
  while Sim.Engine.pending w.engine > 0 do
    between (measure run_slice)
  done;
  sample_tables w;
  (!cpu, !words)

let outcome w =
  let flows = w.inputs.Gen.flows in
  Oracle.check
    ~expect:(Array.map (fun f -> f.Gen.expect) flows)
    ~fault:(Array.map (fun f -> f.Gen.probe) flows)
    ~fail_closed:(Array.map (fun f -> f.Gen.fail_closed) flows)
    ~delivered:w.count

(* First-packet delays of the delivered flows, in ms of simulated time. *)
let delays_ms w =
  let l = ref [] in
  Array.iteri
    (fun i c ->
      if c > 0 then l := float_of_int (w.first.(i) - w.sent.(i)) /. 1e6 :: !l)
    w.count;
  Array.of_list !l

(* The flows whose outcome the oracle rejects, described for a reader. *)
let failures w =
  let l = ref [] in
  Tuple_tbl.iter
    (fun tuple i ->
      let f = w.inputs.Gen.flows.(i) in
      let c = w.count.(i) in
      if (f.Gen.expect && c <> 1) || ((not f.Gen.expect) && c > 0) then
        l :=
          Printf.sprintf "%s%s: expected %s, delivered %d times"
            (Five_tuple.to_string tuple)
            (if f.Gen.probe <> None then " (fault probe)" else "")
            (if f.Gen.expect then "allow" else "deny")
            c
          :: !l)
    w.by_tuple;
  List.sort compare !l
