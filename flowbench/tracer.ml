(* Spans and per-layer counters for the traced run, recorded from the
   benchmark's own wrappers around the calls into each layer: the
   engine's [step], the controller callback the network invokes, and
   the host receive path. Spans stay in memory and are written as JSON
   lines when the run ends. *)

open Netcore

let now_ns () = Int64.to_int (Monotonic_clock.now ())

type layer = Step | Core | Host

let layer_name = function
  | Step -> "sim.step"
  | Core -> "core.handle_message"
  | Host -> "identxx.handle_packet"

type span = {
  layer : layer;
  start : int;  (** ns, monotonic *)
  stop : int;
  parent : int;  (** index of the enclosing span, -1 at the root *)
  key : Five_tuple.t option;  (** the 5-tuple of the packet handled *)
}

type t = {
  mutable spans : span array;
  mutable n : int;
  mutable current : int;  (** the open step span, -1 between steps *)
  mutable step_ns : int;
  mutable steps : int;
  mutable core_ns : int;
  mutable core_words : float;
  mutable core_calls : int;
  mutable host_ns : int;
  mutable host_words : float;
  mutable host_calls : int;
  mutable frames : Packet.t list;  (** a sample of delivered frames *)
  mutable nframes : int;
}

let dummy = { layer = Step; start = 0; stop = 0; parent = -1; key = None }

let create () =
  {
    spans = Array.make 4096 dummy;
    n = 0;
    current = -1;
    step_ns = 0;
    steps = 0;
    core_ns = 0;
    core_words = 0.;
    core_calls = 0;
    host_ns = 0;
    host_words = 0.;
    host_calls = 0;
    frames = [];
    nframes = 0;
  }

let push t s =
  if t.n = Array.length t.spans then begin
    let a = Array.make (2 * t.n) dummy in
    Array.blit t.spans 0 a 0 t.n;
    t.spans <- a
  end;
  t.spans.(t.n) <- s;
  t.n <- t.n + 1;
  t.n - 1

(* One engine step, as the root span of whatever it dispatches. *)
let step t engine =
  let id = push t dummy in
  t.current <- id;
  let a = now_ns () in
  let more = Sim.Engine.step engine in
  let b = now_ns () in
  t.current <- -1;
  t.spans.(id) <- { dummy with start = a; stop = b };
  t.step_ns <- t.step_ns + (b - a);
  t.steps <- t.steps + 1;
  more

let around t layer key f x =
  let w0 = Gc.minor_words () in
  let a = now_ns () in
  let r = f x in
  let b = now_ns () in
  let w = Gc.minor_words () -. w0 in
  ignore (push t { layer; start = a; stop = b; parent = t.current; key });
  (match layer with
  | Core ->
      t.core_ns <- t.core_ns + (b - a);
      t.core_words <- t.core_words +. w;
      t.core_calls <- t.core_calls + 1
  | Host ->
      t.host_ns <- t.host_ns + (b - a);
      t.host_words <- t.host_words +. w;
      t.host_calls <- t.host_calls + 1
  | Step -> ());
  r

let sample_frame t pkt =
  if t.nframes < 4096 then begin
    t.frames <- pkt :: t.frames;
    t.nframes <- t.nframes + 1
  end

(* Self time: a span's duration minus what its children cover. *)
let self_times t =
  let self = Array.init t.n (fun i -> t.spans.(i).stop - t.spans.(i).start) in
  for i = 0 to t.n - 1 do
    let s = t.spans.(i) in
    if s.parent >= 0 then
      self.(s.parent) <- self.(s.parent) - (s.stop - s.start)
  done;
  let by = Hashtbl.create 4 in
  Array.iteri
    (fun i d ->
      let l = t.spans.(i).layer in
      Hashtbl.replace by l (d + Option.value ~default:0 (Hashtbl.find_opt by l)))
    self;
  fun l -> Option.value ~default:0 (Hashtbl.find_opt by l)

let write t file =
  let oc = open_out file in
  for i = 0 to t.n - 1 do
    let s = t.spans.(i) in
    Printf.fprintf oc
      "{\"id\":%d,\"name\":\"%s\",\"start_ns\":%d,\"end_ns\":%d,\"parent\":%s,\"flow\":%s}\n"
      i (layer_name s.layer) s.start s.stop
      (if s.parent < 0 then "null" else string_of_int s.parent)
      (match s.key with
      | Some k -> Printf.sprintf "\"%s\"" (Five_tuple.to_string k)
      | None -> "null")
  done;
  close_out oc
