(* The oracle must catch a controller that decides differently: run a
   short cold-signed round under the site policy (no failure expected),
   then under two policies that each differ from the oracle's by one
   rule — one drops ssh from the approved list (false denies expected),
   one drops the rule keeping skype off the important webserver (false
   allows expected). Exits 1 unless all
   three come out as expected. Run by `dune runtest`. *)

(* The first 400 seeded flows, without the fault probes. *)
let short inputs =
  let seeded =
    List.filter (fun f -> f.Gen.probe = None) (Array.to_list inputs.Gen.flows)
  in
  { inputs with Gen.flows = Array.sub (Array.of_list seeded) 0 400 }

let outcome ?allowed ?guard () =
  let inputs = Gen.make World.Cold_signed ~seed:1 in
  let important =
    match inputs.Gen.oracle with
    | Oracle.Enterprise { important } -> important
    | Oracle.Figure8 -> assert false
  in
  let inputs =
    if allowed = None && guard = None then inputs
    else
      {
        inputs with
        Gen.policy = World.enterprise_policy ?allowed ?guard ~important ();
      }
  in
  let w = Runner.stand_up (short inputs) in
  ignore (Runner.run w);
  Runner.outcome w

let () =
  let ok = ref true in
  let check label cond (o : Oracle.outcome) =
    Printf.printf "%-28s failed %3d (false allows %3d, false denies %3d): %s\n"
      label o.Oracle.failed o.Oracle.false_allows o.Oracle.false_denies
      (if cond o then "ok" else "WRONG");
    if not (cond o) then ok := false
  in
  let apps = World.allowed_apps in
  check "site policy" (fun o -> o.Oracle.failed = 0) (outcome ());
  check "ssh not approved"
    (fun o -> o.Oracle.false_denies > 0 && o.Oracle.false_allows = 0)
    (outcome ~allowed:(List.filter (fun a -> a <> "ssh") apps) ());
  check "skype guard dropped"
    (fun o -> o.Oracle.false_allows > 0 && o.Oracle.false_denies = 0)
    (outcome ~guard:false ());
  if not !ok then exit 1
