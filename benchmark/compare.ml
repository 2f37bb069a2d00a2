(* Verdicts of one set of result files against another, by the bounds
   BENCHMARK.json records. Each side is one or more files written with
   [--out]; a side's value is the median of its files.

   For each workload and end-to-end metric: [worse] or [better] when
   the medians differ by more than the bound in that direction, [same]
   otherwise, and [unresolved] when a side lacks the value or the base
   side's own spread is wider than the bound (unless every new run
   reads better than every base run). Failed ops are compared as a
   fraction of those attempted, with an absolute bound of 0.002. *)

let failed_frac_bound = 0.002

type spec_metric = { name : string; unit : string; better : string; bound : float }

let spec_metrics spec key =
  List.map
    (fun m ->
      let s k = Option.value ~default:"" (Json.to_str (Json.member k m)) in
      { name = s "name"; unit = s "unit"; better = s "better";
        bound = Option.value ~default:0. (Json.to_num (Json.member "bound" m)) })
    (Json.to_list (Json.member key spec))

let workload_of file w = Json.member w (Json.member "workloads" file)

let values files w metric =
  List.filter_map
    (fun f -> Json.to_num (Json.member "value" (Json.member metric (Json.member "metrics" (workload_of f w)))))
    files

let failed_fracs files w =
  List.filter_map
    (fun f ->
      let r = workload_of f w in
      match (Json.to_num (Json.member "attempted" r), Json.to_num (Json.member "failed" r)) with
      | Some a, Some n when a > 0. -> Some (n /. a)
      | _ -> None)
    files

let median = Harness.median

let contains s sub =
  let n = String.length s and k = String.length sub in
  let rec go i = i + k <= n && (String.sub s i k = sub || go (i + 1)) in
  go 0

(* [worse_by]: how much worse [b] is than [a], positive when worse. *)
let verdict ~worse_by ~bound base news =
  match (base, news) with
  | [], _ | _, [] -> "unresolved"
  | _ ->
    let mb = median base and mn = median news in
    let lo = List.fold_left Float.min infinity base in
    let spread = Float.abs (worse_by lo (List.fold_left Float.max neg_infinity base)) in
    let all_better = List.for_all (fun n -> List.for_all (fun b -> worse_by b n < 0.) base) news in
    let change = worse_by mb mn in
    if Float.is_nan change || Float.is_nan spread then "unresolved"
    else if spread > bound then if all_better then "better" else "unresolved"
    else if change > bound then "worse"
    else if change < -.bound then "better"
    else "same"

let relative better a b =
  if a = 0. then if b = 0. then 0. else Float.nan
  else if better = "lower" then (b -. a) /. Float.abs a
  else (a -. b) /. Float.abs a

let run ~spec ~base ~news =
  let spec = Json.of_file spec in
  let base = List.map Json.of_file base and news = List.map Json.of_file news in
  let workloads = List.map (fun w -> Option.value ~default:"" (Json.to_str (Json.member "name" w))) (Json.to_list (Json.member "workloads" spec)) in
  let worse = ref 0 in
  Printf.printf "%-14s %-20s %16s %16s %9s  %s\n" "workload" "metric" "base" "new" "worse by" "verdict";
  let row w name b n change v =
    if v = "worse" then incr worse;
    Printf.printf "%-14s %-20s %16.6g %16.6g %+8.2f%%  %s\n" w name (median b) (median n) (100. *. change) v
  in
  List.iter
    (fun w ->
      List.iter
        (fun m ->
          let b = values base w m.name and n = values news w m.name in
          let worse_by = relative m.better in
          let change = if b = [] || n = [] then Float.nan else worse_by (median b) (median n) in
          row w m.name b n change (verdict ~worse_by ~bound:m.bound b n))
        (spec_metrics spec "end_to_end");
      let b = failed_fracs base w and n = failed_fracs news w in
      let worse_by a b = b -. a in
      let change = if b = [] || n = [] then Float.nan else worse_by (median b) (median n) in
      row w "failed_frac" b n change (verdict ~worse_by ~bound:failed_frac_bound b n);
      (* Per-layer metrics off the host clock repeat exactly. *)
      let differs =
        List.filter
          (fun m ->
            let host = List.exists (fun s -> contains m.name s) [ "host"; "overhead" ] in
            (not host)
            && match values (base @ news) w m.name with [] -> false | v :: vs -> List.exists (( <> ) v) vs)
          (spec_metrics spec "per_layer")
      in
      if differs <> [] then
        Printf.printf "%-14s per-layer counts that differ: %s\n" w
          (String.concat ", " (List.map (fun m -> m.name) differs)))
    workloads;
  if !worse > 0 then 1 else 0
