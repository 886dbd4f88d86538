(* The expected verdict of every generated flow, computed from what the
   generator put in place — users, applications, listeners, patch
   levels, silent daemons — by a predicate written here, independently
   of the program's policy engine. Each predicate mirrors one policy the
   benchmark loads (World.enterprise_policy, policies/10-user-rules.control),
   the way examples/enterprise.ml mirrors its own. *)

open Netcore

(* What a flow's end would tell the controller. *)
type endpoint =
  | Silent
  | Answers of { user : string option; app : string option; patched : bool }
      (** [user]/[app] are [None] when no process owns the flow's end
          (the daemon then answers with host-wide pairs only). *)

type facts = {
  proto : Proto.t;
  dport : int;
  dst_ip : Ipv4.t;
  src : endpoint;
  dst : endpoint;
}

type policy = Enterprise of { important : Ipv4.t } | Figure8

(* Flows whose verdict follows from network fields alone. *)
let static policy f =
  match policy with
  | Figure8 -> false
  | Enterprise _ -> (
      match (f.proto, f.dport) with
      | Proto.Tcp, 23 | Proto.Udp, 53 -> true
      | _ -> false)

let expect policy f =
  match policy with
  | Enterprise { important } -> (
      match (f.proto, f.dport) with
      | Proto.Tcp, 23 -> false
      | Proto.Udp, 53 -> true
      | _ -> (
          match (f.src, f.dst) with
          | Answers s, Answers d ->
              (match s.app with
              | Some a -> List.mem a World.allowed_apps
              | None -> false)
              && d.user = Some "system"
              && not (s.app = Some "skype" && Ipv4.equal f.dst_ip important)
          | _ -> false))
  | Figure8 -> (
      match (f.src, f.dst) with
      | Answers s, Answers d ->
          s.user = Some "system" && d.user = Some "system"
          && d.app = Some "Server" && d.patched
      | _ -> false)

(* Fail-closed applies: the verdict needs daemon answers and one end
   cannot give them. *)
let fail_closed policy f =
  (not (static policy f)) && (f.src = Silent || f.dst = Silent)

(* --- checking outcomes -------------------------------------------------- *)

type outcome = {
  attempted : int;
  failed : int;
  false_allows : int;  (** Denied by the oracle, delivered: fail-open. *)
  false_denies : int;  (** Allowed by the oracle, never delivered. *)
  duplicates : int;  (** Allowed, delivered more than once. *)
  unexplained : int;
      (** Failures that no named fault accounts for: any failure of a
          seeded flow, and a probe flow's failure other than the one its
          fault gives. *)
  fail_closed_checked : int;
  fail_closed_violations : int;
  delivered : int;
}

(* [delivered.(i)] counts the deliveries of flow i's first packet.
   [fault.(i)] is [None] for a seeded flow; for a fixed probe flow it is
   the number of deliveries the probe's named fault gives that flow. *)
let check ~expect ~fault ~fail_closed ~delivered =
  let n = Array.length expect in
  let fa = ref 0 and fd = ref 0 and dup = ref 0 and seeded = ref 0 in
  let fc = ref 0 and fcv = ref 0 and dl = ref 0 in
  for i = 0 to n - 1 do
    let d = delivered.(i) in
    if d > 0 then incr dl;
    let bad =
      if expect.(i) then
        if d = 0 then (incr fd; true)
        else if d > 1 then (incr dup; true)
        else false
      else if d > 0 then (incr fa; true)
      else false
    in
    if bad && fault.(i) <> Some d then incr seeded;
    if fail_closed.(i) then begin
      incr fc;
      if d > 0 then incr fcv
    end
  done;
  {
    attempted = n;
    failed = !fa + !fd + !dup;
    false_allows = !fa;
    false_denies = !fd;
    duplicates = !dup;
    unexplained = !seeded;
    fail_closed_checked = !fc;
    fail_closed_violations = !fcv;
    delivered = !dl;
  }
