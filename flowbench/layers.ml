(* Per-layer metrics of a traced round: counts read from the layers'
   public accessors, busy time and words from the benchmark's own
   wrappers (Tracer), and per-call costs from replaying the round's own
   inputs through the layers' public functions. *)

open Netcore
module C = Identxx_core.Controller
module PS = Identxx_core.Policy_store
module Net = Openflow.Network
module R = Runner

let median a =
  let a = Array.copy a in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Mean cost of one call of [f] over [items], in µs: whole passes over
   the items until at least 20 ms have gone, five times; the median of
   the five. *)
let per_call_us items f =
  let n = Array.length items in
  if n = 0 then nan
  else
    median
      (Array.init 5 (fun _ ->
           let t0 = Tracer.now_ns () and ops = ref 0 in
           while Tracer.now_ns () - t0 < 20_000_000 do
             Array.iter (fun x -> ignore (Sys.opaque_identity (f x))) items;
             ops := !ops + n
           done;
           float_of_int (Tracer.now_ns () - t0) /. float_of_int !ops /. 1e3))

(* The round's own flows (at most [limit]), with the answers both
   daemons give about them now. *)
let replay_inputs (w : R.world) ~limit =
  let keys =
    match PS.env (C.policy w.R.controller) with
    | Ok env -> Pf.Env.referenced_keys env
    | Error _ -> C.default_config.C.query_keys
  in
  let l = ref [] and k = ref 0 in
  R.Tuple_tbl.iter
    (fun (tuple : Five_tuple.t) i ->
      if !k < limit then begin
        incr k;
        let f = w.R.inputs.Gen.flows.(i) in
        let answer host ~peer =
          Option.map fst
            (Identxx.Daemon.answer
               (Identxx.Host.daemon w.R.hosts.(host))
               ~peer ~proto:tuple.Five_tuple.proto
               ~src_port:tuple.Five_tuple.src_port
               ~dst_port:tuple.Five_tuple.dst_port ~keys)
        in
        l :=
          {
            Identxx_core.Decision.flow = tuple;
            src_response = answer f.Gen.src ~peer:tuple.Five_tuple.dst;
            dst_response = answer f.Gen.dst ~peer:tuple.Five_tuple.src;
          }
          :: !l
      end)
    w.R.by_tuple;
  Array.of_list !l

(* What a response signature covers (Identxx.Signed): the header fields
   and every key/value of the unsigned sections. *)
let covered (r : Identxx.Response.t) =
  let unsigned =
    List.filter
      (fun s -> Identxx.Key_value.find s Identxx.Signed.sig_key = None)
      r.Identxx.Response.sections
  in
  Printf.sprintf "%s %d %d"
    (Proto.to_string r.Identxx.Response.proto)
    r.Identxx.Response.src_port r.Identxx.Response.dst_port
  :: List.concat_map
       (List.concat_map (fun (p : Identxx.Key_value.pair) ->
            [ p.Identxx.Key_value.key; p.Identxx.Key_value.value ]))
       unsigned

let bench_key = Idcrypto.Sign.generate ~seed:"flowbench" "replay"

let crypto_us (w : R.world) inputs =
  let responses =
    Array.of_list
      (List.concat_map
         (fun (i : Identxx_core.Decision.input) ->
           List.filter_map Fun.id
             [ i.Identxx_core.Decision.src_response; i.dst_response ])
         (Array.to_list inputs))
  in
  let data = Array.map covered responses in
  let sign =
    per_call_us data (fun d ->
        Idcrypto.Sign.sign ~secret:bench_key.Idcrypto.Sign.secret d)
  in
  (* Verify what a signing daemon would send: responses already signed
     stay as they are, the rest are signed with the replay key. *)
  let ks = Idcrypto.Sign.keystore () in
  Idcrypto.Sign.register ks bench_key;
  let signed =
    Array.map
      (fun r ->
        match Identxx.Signed.verify ks r with
        | Identxx.Signed.Unsigned -> Identxx.Signed.sign ~keypair:bench_key r
        | Identxx.Signed.Valid _ | Identxx.Signed.Invalid -> r)
      responses
  in
  Array.iter
    (fun hs ->
      Idcrypto.Sign.register ks (World.host_key hs.Workload.Fabric.hs_name))
    w.R.fabric.Workload.Fabric.hosts;
  let verify = per_call_us signed (fun r -> Identxx.Signed.verify ks r) in
  (sign, verify)

(* Adding an exact-match entry to a table already holding [peak]
   entries, like the largest table of the round at its peak. *)
let table_add_us (w : R.world) =
  let peak = max 1 w.R.table_peak in
  let table = Openflow.Flow_table.create () in
  let entry k =
    let tuple =
      Five_tuple.tcp
        ~src:(Ipv4.of_octets 10 200 (k / 60000) (1 + (k mod 200)))
        ~dst:(Ipv4.of_octets 10 201 0 1)
        ~src_port:(1024 + (k mod 60000))
        ~dst_port:80
    in
    Openflow.Flow_entry.make ~priority:0x8000
      ~fields:(Openflow.Match_fields.of_five_tuple tuple)
      [ Openflow.Action.Output 1 ]
  in
  for k = 0 to peak - 1 do
    Openflow.Flow_table.add table (entry k)
  done;
  let extra = Array.init 32 (fun j -> entry (peak + j)) in
  median
    (Array.init 7 (fun _ ->
         let t0 = Tracer.now_ns () in
         Array.iter (Openflow.Flow_table.add table) extra;
         let t1 = Tracer.now_ns () in
         Array.iter
           (fun e ->
             Openflow.Flow_table.remove table ~fields:e.Openflow.Flow_entry.fields)
           extra;
         float_of_int (t1 - t0) /. 32. /. 1e3))

(* A policy reload that changes no verdict, landed in the switches. *)
let reload_ms (w : R.world) =
  median
    (Array.init 5 (fun k ->
         let t0 = Tracer.now_ns () in
         PS.add_exn (C.policy w.R.controller) ~name:"90-reload"
           (World.reload_policy (100 + k));
         Sim.Engine.run w.R.engine;
         float_of_int (Tracer.now_ns () - t0) /. 1e6))

let window_step_us (w : R.world) =
  let win = Obs.Window.create ~interval:1. ~now:0. w.R.obs in
  median
    (Array.init 21 (fun k ->
         let t0 = Tracer.now_ns () in
         ignore (Obs.Window.close win ~now:(float_of_int (k + 1)));
         float_of_int (Tracer.now_ns () - t0) /. 1e3))

(* One event scheduled and dispatched on an engine holding as many
   pending events as the fabric typically does. *)
let event_us () =
  let e = Sim.Engine.create () in
  let prng = Sim.Prng.create 7 in
  let delay () = Sim.Time.ns (1 + Sim.Prng.int prng 100_000) in
  for _ = 1 to 256 do
    Sim.Engine.schedule e ~delay:(delay ()) ignore
  done;
  let ops = 200_000 in
  let t0 = Tracer.now_ns () in
  for _ = 1 to ops do
    Sim.Engine.schedule e ~delay:(delay ()) ignore;
    ignore (Sim.Engine.step e)
  done;
  float_of_int (Tracer.now_ns () - t0) /. float_of_int ops /. 1e3

let frames_emitted (w : R.world) =
  let topo = Net.topology w.R.network in
  let nodes =
    List.map (fun d -> Openflow.Topology.Sw d) (Openflow.Topology.switches topo)
    @ List.map (fun h -> Openflow.Topology.Host h) (Openflow.Topology.hosts topo)
  in
  List.fold_left
    (fun acc node ->
      List.fold_left
        (fun acc port -> acc + Net.egress_packets w.R.network ~node ~port)
        acc
        (Openflow.Topology.ports_of topo node))
    0 nodes

(* Counts and busy times of one traced round, before any replay touches
   the world. *)
let counts (w : R.world) (tr : Tracer.t) ~run_ns =
  let c = w.R.controller in
  let st = C.stats c in
  let flows = float_of_int (Array.length w.R.inputs.Gen.flows) in
  let per x = float_of_int x /. flows in
  let answers =
    Array.fold_left
      (fun a h -> a + Identxx.Daemon.queries_answered (Identxx.Host.daemon h))
      0 w.R.hosts
  in
  let ratio h m = if h + m = 0 then 0. else float_of_int h /. float_of_int (h + m) in
  let self = Tracer.self_times tr in
  let makespan =
    if (C.config c).C.shards <> None then
      Sim.Time.to_float_ms (C.shard_makespan c) -. Sim.Time.to_float_ms w.R.start
    else Sim.Time.to_float_ms (Sim.Engine.now w.R.engine) -. Sim.Time.to_float_ms w.R.start
  in
  [
    ("sim.events_per_flow", per tr.Tracer.steps, "count");
    ("core.busy_us_per_flow", float_of_int tr.Tracer.core_ns /. flows /. 1e3, "us");
    ("core.words_per_flow", tr.Tracer.core_words /. flows, "words");
    ("core.messages_per_flow", per tr.Tracer.core_calls, "count");
    ("core.timeouts_per_flow", per st.C.query_timeouts, "count");
    ("identxx.answers_per_flow", per answers, "count");
    ( "identxx.busy_us_per_answer",
      float_of_int tr.Tracer.host_ns /. float_of_int (max 1 answers) /. 1e3,
      "us" );
    ( "identxx.words_per_answer",
      tr.Tracer.host_words /. float_of_int (max 1 answers),
      "words" );
    ("openflow.frames_per_flow", per (frames_emitted w), "count");
    ( "openflow.fabric_us_per_flow",
      float_of_int (self Tracer.Step) /. flows /. 1e3,
      "us" );
    ("openflow.packet_ins_per_flow", per (Net.packet_ins w.R.network), "count");
    ("openflow.table_entries_peak", float_of_int w.R.table_peak, "count");
    ( "compiler.proactive_entries",
      float_of_int (List.length (C.proactive_table c).Compiler.entries),
      "count" );
    ("fastpath.attr_hit_ratio", ratio st.C.attr_cache_hits st.C.attr_cache_misses, "ratio");
    ( "fastpath.decision_hit_ratio",
      ratio st.C.decision_cache_hits st.C.decision_cache_misses,
      "ratio" );
    ("fastpath.breaker_fastpaths_per_flow", per st.C.breaker_fastpaths, "count");
    ("fastpath.invalidations_per_flow", per st.C.attr_cache_invalidations, "count");
    ("shard.wire_exchanges_per_flow", per (C.wire_exchanges c), "count");
    ("shard.coalesced_per_flow", per (C.coalesced_queries c), "count");
    ("shard.batch_flushes_per_flow", per (C.batch_flushes c), "count");
    ("shard.makespan_ms", makespan, "ms");
    ( "obs.recorder_events_per_flow",
      per (Obs.Recorder.count w.R.recorder + Obs.Recorder.dropped w.R.recorder),
      "count" );
    ( "obs.spans_per_flow",
      per (Obs.Span.count w.R.spans + Obs.Span.capacity_dropped w.R.spans),
      "count" );
    ( "trace.gap_us_per_flow",
      float_of_int (run_ns - tr.Tracer.step_ns) /. flows /. 1e3,
      "us" );
  ]

(* Per-call costs, replayed after the round on its final state. *)
let replays (w : R.world) (tr : Tracer.t) =
  let inputs = replay_inputs w ~limit:500 in
  let decision = C.decision w.R.controller in
  let decide =
    per_call_us inputs (fun i -> Identxx_core.Decision.decide decision i)
  in
  let sign, verify = crypto_us w inputs in
  let frames = Array.of_list (List.map Packet.encode tr.Tracer.frames) in
  let decode = per_call_us frames (fun s -> Packet.decode s) in
  [
    ("pf.decide_us", decide, "us");
    ("idcrypto.sign_us", sign, "us");
    ("idcrypto.verify_us", verify, "us");
    ("netcore.decode_us", decode, "us");
    ("openflow.table_add_us", table_add_us w, "us");
    ("compiler.reload_ms", reload_ms w, "ms");
    ("obs.window_step_us", window_step_us w, "us");
    ("sim.event_us", event_us (), "us");
  ]
