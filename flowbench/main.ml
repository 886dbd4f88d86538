(* The end-to-end flow-setup benchmark.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   Runs whole rounds of one workload (cold-signed, warm-churn or
   scan-storm, see README.md) for about S seconds in this single
   process and thread, checks every flow of every round against the
   oracle, and prints one JSON object as the last line of standard
   output: the end-to-end metrics with --trace 0, the per-layer metrics
   of the traced rounds with --trace 1. Anything else goes to standard
   error. *)

module R = Runner
module L = Layers

let cpu () = Sys.time ()
let wall () = float_of_int (Tracer.now_ns ()) /. 1e9

(* The core's speed right next to the measured work. On a shared
   machine it moves by a quarter within a second, and other tenants
   slow different kinds of work by different amounts, so two fixed
   pieces of work that use none of the program's code are timed: one
   of hash-table inserts and lookups, and one that does what a flow
   setup does most — walk a list of 2000 records, index the ones a
   filter keeps, and follow 3000 pointers through a 1 MB array. The
   geometric mean of their CPU times over their nominal times tracks
   how much the program slows down (README.md).

   Neither kernel allocates, but for the float it returns: every
   table, list and array is made once here and only read or
   overwritten while timed. A kernel that allocated could start a
   collection that the program's own allocations made due, and that
   work would leave the slice's time and raise the divisor at once. *)

(* An open-addressing table of int keys over two preallocated arrays;
   [clear] overwrites, [add] and [find] probe linearly. *)
module Int_table = struct
  type t = { keys : int array; values : int array; mask : int }

  let create bits =
    let n = 1 lsl bits in
    { keys = Array.make n (-1); values = Array.make n 0; mask = n - 1 }

  let clear t = Array.fill t.keys 0 (Array.length t.keys) (-1)

  let rec probe t k i =
    let x = Array.unsafe_get t.keys i in
    if x = k || x = -1 then i else probe t k ((i + 1) land t.mask)

  let slot t k = probe t k (Hashtbl.hash k land t.mask)

  let add t k v =
    let i = slot t k in
    Array.unsafe_set t.keys i k;
    Array.unsafe_set t.values i v

  let find t k =
    let i = slot t k in
    if Array.unsafe_get t.keys i = k then Array.unsafe_get t.values i else -1
end

(* Sum of a list, without a closure or an accumulator cell. *)
let rec sum acc = function [] -> acc | x :: l -> sum (acc + x) l

(* Each kernel runs twice and only the second pass is timed, so its
   data is in cache whatever the program did before it: the program's
   own footprint, which evicts the kernels' data between slices, cannot
   move the divisor. *)
let timed_second body () =
  body ();
  let c0 = cpu () in
  body ();
  cpu () -. c0

let calibrate_tables =
  let table = Int_table.create 13 in
  let list = List.init 5_000 Fun.id in
  timed_second (fun () ->
      Int_table.clear table;
      for i = 0 to 4_999 do
        Int_table.add table ((i * 7919) land 0xfff) i;
        ignore (Sys.opaque_identity (Int_table.find table ((i * 31) land 0xfff)))
      done;
      ignore (Sys.opaque_identity (sum 0 list)))

let calibrate_lists =
  let size = 1 lsl 17 in
  let prng = Sim.Prng.create 1 in
  let cycle = Array.init size Fun.id in
  Sim.Prng.shuffle prng cycle;
  let next = Array.make size 0 in
  Array.iteri (fun i x -> next.(x) <- cycle.((i + 1) land (size - 1))) cycle;
  let records = List.init 2000 (fun i -> (i, string_of_int i)) in
  let index = Int_table.create 12 in
  (* Index the records whose key passes the filter [k]; the index is
     keyed by the record's key and holds the hash of its name. *)
  let rec keep k = function
    | [] -> ()
    | (i, v) :: l ->
        if i land k = 0 then Int_table.add index i (Hashtbl.hash v);
        keep k l
  in
  timed_second (fun () ->
      let j = ref 0 in
      for _ = 1 to 3000 do
        j := next.(!j)
      done;
      ignore (Sys.opaque_identity !j);
      for k = 1 to 4 do
        Int_table.clear index;
        keep k records
      done)

(* The nominal CPU times: a core running at reference speed. The unit
   of the reported times is the "reference second". *)
let reference_tables = 0.00026
let reference_lists = 0.0002

(* The core's slowness: 1 at reference speed, 2 at half of it. *)
let calibration () =
  let lists = calibrate_lists () in
  let tables = calibrate_tables () in
  sqrt (lists /. reference_lists *. (tables /. reference_tables))

type round = {
  setup : float;  (** reference seconds *)
  setup_ns : int;
  run_cpu : float;
  run_ref : float;  (** [run_cpu] in reference seconds *)
  run_ns : int;
  words : float;
  outcome : Oracle.outcome;
  delays : float array;
}

(* The core's slowness around a short piece of work, from [n]
   calibrations before and after it. *)
let bracket n f =
  let calib () = List.fold_left ( +. ) 0. (List.init n (fun _ -> calibration ())) in
  let before = calib () in
  let c0 = cpu () in
  let x = f () in
  let c1 = cpu () in
  let after = calib () in
  (x, c1 -. c0, (before +. after) /. float_of_int (2 * n))

(* Set-up in reference seconds, and the world it stood up. *)
let set_up ?tracer inputs =
  Gc.full_major ();
  let w, cpu, slowness = bracket 4 (fun () -> R.stand_up ?tracer inputs) in
  (w, cpu /. slowness)

(* One round; the world is handed back for the traced path. *)
let round ?tracer inputs =
  let s0 = Tracer.now_ns () in
  let w, setup = set_up ?tracer inputs in
  let s1 = Tracer.now_ns () in
  (* Each slice is scaled by the core's slowness around it: the mean
     of the calibrations just before and just after. *)
  let before = ref (calibration ()) and run_ref = ref 0. in
  let between slice_cpu =
    let after = calibration () in
    run_ref := !run_ref +. (slice_cpu *. 2. /. (!before +. after));
    before := after
  in
  let t0 = Tracer.now_ns () in
  let run_cpu, words = R.run ~between w in
  let t1 = Tracer.now_ns () in
  ( {
      setup;
      setup_ns = s1 - s0;
      run_cpu;
      run_ref = !run_ref;
      run_ns = t1 - t0;
      words;
      outcome = R.outcome w;
      delays = R.delays_ms w;
    },
    w )

(* Nearest-rank percentile. *)
let percentile a p =
  let a = Array.copy a in
  Array.sort compare a;
  let n = Array.length a in
  a.(max 0 (min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1)))

let json_metrics l =
  String.concat ", "
    (List.map
       (fun (name, v, unit) ->
         Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" name
           (if Float.is_finite v then Printf.sprintf "%.17g" v else "null")
           unit)
       l)

let report ~correct ~attempted ~failed metrics =
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed (json_metrics metrics)

let describe (o : Oracle.outcome) =
  Printf.sprintf
    "attempted %d, delivered %d, failed %d (false allows %d, false denies %d, \
     duplicates %d; unexplained by the named faults %d), fail-closed checked %d \
     (violations %d)"
    o.Oracle.attempted o.Oracle.delivered o.Oracle.failed o.Oracle.false_allows
    o.Oracle.false_denies o.Oracle.duplicates o.Oracle.unexplained
    o.Oracle.fail_closed_checked o.Oracle.fail_closed_violations

(* Every round must match the oracle but for what the named faults do
   to the fixed probes, do exactly what the first round did, and
   deliver enough flows for a p99 with ten samples beyond it. *)
let verdict rounds =
  let first = List.hd rounds in
  List.for_all
    (fun r ->
      r.outcome = first.outcome
      && r.outcome.Oracle.unexplained = 0
      && r.outcome.Oracle.fail_closed_violations = 0)
    rounds
  && first.outcome.Oracle.delivered >= 1000

let totals rounds =
  List.fold_left
    (fun (a, f) r -> (a + r.outcome.Oracle.attempted, f + r.outcome.Oracle.failed))
    (0, 0) rounds

let setups = 21

(* The major heap's high-water mark when the first round ends: up to
   then the process has done the same allocations in the same order
   whatever the machine, so the figure repeats run to run. *)
let heap_mb = ref nan

let note_heap () =
  if Float.is_nan !heap_mb then
    heap_mb :=
      float_of_int (Gc.quick_stat ()).Gc.top_heap_words
      *. float_of_int (Sys.word_size / 8)
      /. 1048576.

(* Flows set up per reference second of CPU time in the measured phase,
   the median over the run's rounds. *)
let per_round_throughput r = float_of_int r.outcome.Oracle.attempted /. r.run_ref

let throughput rounds =
  L.median (Array.of_list (List.map per_round_throughput rounds))

let end_to_end inputs ~seconds =
  let start = wall () in
  let rec loop acc =
    let r, w = round inputs in
    note_heap ();
    if acc = [] then List.iter (Printf.eprintf "  %s\n") (R.failures w);
    let acc = r :: acc in
    if wall () -. start < seconds || List.length acc < 3 then loop acc
    else List.rev acc
  in
  let rounds = loop [] in
  Printf.eprintf "rounds, flows/s: %s\n"
    (String.concat " "
       (List.map
          (fun r ->
            Printf.sprintf "%.0f (raw %.0f)" (per_round_throughput r)
              (float_of_int r.outcome.Oracle.attempted /. r.run_cpu))
          rounds));
  (* Set-up is short next to a round: stand the world up on its own a
     few more times, so its median rests on at least [setups] samples. *)
  let extra =
    List.init (max 0 (setups - List.length rounds)) (fun _ -> snd (set_up inputs))
  in
  let setup = List.map (fun r -> r.setup) rounds @ extra in
  let first = List.hd rounds in
  let med f = L.median (Array.of_list (List.map f rounds)) in
  Printf.eprintf
    "set-up: %.4f reference s (wall %.4f s); measured phase: cpu %.4f s, \
     wall %.4f s with calibration, core speed %.2f of reference\n"
    (L.median (Array.of_list setup))
    (med (fun r -> float_of_int r.setup_ns /. 1e9))
    (med (fun r -> r.run_cpu))
    (med (fun r -> float_of_int r.run_ns /. 1e9))
    (med (fun r -> r.run_ref /. r.run_cpu));
  let flows = float_of_int first.outcome.Oracle.attempted in
  Printf.eprintf "%d rounds; each: %s\n" (List.length rounds)
    (describe first.outcome);
  let attempted, failed = totals rounds in
  report ~correct:(verdict rounds) ~attempted ~failed
    [
      ("setup_s", L.median (Array.of_list setup), "s");
      ("flows_per_s", throughput rounds, "flows/s");
      ("first_packet_ms_p50", percentile first.delays 0.50, "ms");
      ("first_packet_ms_p99", percentile first.delays 0.99, "ms");
      ("alloc_words_per_flow", med (fun r -> r.words /. flows), "words");
      ("heap_peak_mb", !heap_mb, "MB");
    ]

(* Untraced and traced rounds alternate; the per-layer figures are the
   traced rounds' medians. The first traced round's spans are written
   out, and its world is kept for the replays. *)
let traced inputs ~seconds ~spans_file =
  let start = wall () in
  let rec loop plain traced first =
    let p, _ = round inputs in
    let tr = Tracer.create () in
    let t, w = round ~tracer:tr inputs in
    let traced = (t, L.counts w tr ~run_ns:t.run_ns) :: traced in
    let first = match first with None -> Some (t, w, tr) | Some _ -> first in
    if wall () -. start < seconds then loop (p :: plain) traced first
    else (List.rev (p :: plain), List.rev traced, Option.get first)
  in
  let plain, traced, (t, w, tr) = loop [] [] None in
  Tracer.write tr spans_file;
  let self = Tracer.self_times tr in
  let flows = float_of_int t.outcome.Oracle.attempted in
  let us ns = float_of_int ns /. flows /. 1e3 in
  Printf.eprintf
    "traced round, per flow (%d spans written to %s):\n\
    \  wall (measured phase)     %8.2f us\n\
    \  sim.step self (fabric)    %8.2f us\n\
    \  core.handle_message       %8.2f us\n\
    \  identxx.handle_packet     %8.2f us\n\
    \  gap (loop, clock reads)   %8.2f us\n"
    tr.Tracer.n spans_file (us t.run_ns) (us (self Tracer.Step))
    (us (self Tracer.Core)) (us (self Tracer.Host))
    (us (t.run_ns - tr.Tracer.step_ns));
  let med l f = L.median (Array.of_list (List.map f l)) in
  let counts =
    List.map
      (fun (name, _, unit) ->
        ( name,
          med traced (fun (_, c) ->
              let _, v, _ = List.find (fun (n, _, _) -> n = name) c in
              v),
          unit ))
      (snd (List.hd traced))
  in
  (* Both kinds of round in reference seconds. *)
  let overhead =
    100.
    *. (med traced (fun (t, _) -> t.run_ref) /. med plain (fun r -> r.run_ref)
       -. 1.)
  in
  let rounds = plain @ List.map fst traced in
  let attempted, failed = totals rounds in
  report ~correct:(verdict rounds) ~attempted ~failed
    (counts @ L.replays w tr @ [ ("trace.overhead_pct", overhead, "%") ])

(* Extra work per flow, for checking the throughput estimator only: a
   known cost added to every flow setup must lower flows_per_s by the
   ratio it predicts (README.md, "Checking the estimator"). [spin]
   steps an integer generator; [alloc] builds a list of that many
   cells (3 words each) and keeps it in a ring of the last 64, so it
   lives through minor collections and reaches the major heap. *)
let spin n =
  let x = ref 1 in
  for _ = 1 to n do
    x := (!x * 1103515245) + 12345
  done;
  ignore (Sys.opaque_identity !x)

let ring = Array.make 64 []
let ring_next = ref 0

let alloc n =
  let rec build k acc = if k = 0 then acc else build (k - 1) (k :: acc) in
  ring.(!ring_next) <- build n [];
  ring_next := (!ring_next + 1) land 63

(* The extra work's own cost per call in reference seconds, timed on
   its own before the rounds: chunks of calls, each scaled like a slice
   of the measured phase by the calibrations around it. *)
let extra_cost f =
  let chunks = 40 and calls = 50 in
  let before = ref (calibration ()) and total = ref 0. in
  for _ = 1 to chunks do
    let c0 = cpu () in
    for _ = 1 to calls do
      f ()
    done;
    let c1 = cpu () in
    let after = calibration () in
    total := !total +. ((c1 -. c0) *. 2. /. (!before +. after));
    before := after
  done;
  !total /. float_of_int (chunks * calls)

let () =
  let workload = ref None and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let flows = ref None and scale = ref None in
  let extra = ref [] in
  let add_extra name f =
    Arg.Int
      (fun n ->
        if n < 1 || n > 1_000_000 then raise (Arg.Bad (name ^ ": 1 to 1000000"));
        extra := (fun () -> f n) :: !extra)
  in
  let spec =
    [
      ( "--workload",
        Arg.String (fun s -> workload := List.assoc_opt s World.names),
        " cold-signed, warm-churn or scan-storm" );
      ("--seed", Arg.Set_int seed, " input seed");
      ("--seconds", Arg.Set_float seconds, " how long to run rounds");
      ("--trace", Arg.Set_int trace, " 1 for the traced run's per-layer metrics");
      ( "--flows",
        Arg.Int
          (fun n ->
            (* Source ports are numbered per flow (Runner.src_port). *)
            if n < 1 || n > 50_000 then raise (Arg.Bad "--flows: 1 to 50000");
            flows := Some n),
        " flows per round of cold-signed (default 2000)" );
      ( "--rate-scale",
        Arg.Float
          (fun x ->
            if not (x >= 0.1 && x <= 10.) then
              raise (Arg.Bad "--rate-scale: 0.1 to 10");
            scale := Some x),
        " F: multiply every arrival rate by F (default 1)" );
      ( "--extra-spin",
        add_extra "--extra-spin" spin,
        " N: add N generator steps to every flow setup (estimator check)" );
      ( "--extra-alloc",
        add_extra "--extra-alloc" alloc,
        " N: add N retained list cells to every flow setup (estimator check)" );
    ]
  in
  Arg.parse spec (fun a -> raise (Arg.Bad a)) "main.exe --workload NAME [options]";
  match !workload with
  | None ->
      prerr_endline "flowbench: --workload must be cold-signed, warm-churn or scan-storm";
      exit 2
  | Some wl ->
      let inputs = Gen.make ?flows:!flows ?scale:!scale wl ~seed:!seed in
      if !extra <> [] then begin
        let f () = List.iter (fun g -> g ()) !extra in
        Printf.eprintf "extra work: %.2f reference us per flow, timed on its own\n"
          (extra_cost f *. 1e6);
        R.per_flow := f
      end;
      if !trace = 0 then end_to_end inputs ~seconds:!seconds
      else begin
        let dir = Filename.concat "flowbench" "out" in
        if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
        traced inputs ~seconds:!seconds
          ~spans_file:
            (Filename.concat dir
               (Printf.sprintf "%s-seed%d.spans.jsonl" (World.to_string wl) !seed))
      end
