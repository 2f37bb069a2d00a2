(* rhodos_bench: what a client of the file facility sees, end to end
   and layer by layer, on four workloads (see README.md).

   Usage:
     rhodos_bench.exe [--seed N] [--out FILE]
       every workload, each in its own process: 3 reps and a traced
       rep; prints "workload metric value unit" lines, writes them as
       JSON to FILE, exits non-zero on any correctness violation
     rhodos_bench.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]
                      [--reps N] [--scale F]
       one workload in this process: reps until at least N (default 3)
       are done and S seconds measured, then a traced rep if --trace 1;
       the last line is a JSON summary of the end-to-end metrics
       (--trace 0) or the per-layer ones (--trace 1)
     rhodos_bench.exe --smoke BENCHMARK.json
       every workload at 1% of its length, 1 rep and the traced rep;
       checks each metric BENCHMARK.json names is printed with its unit
     rhodos_bench.exe compare [--spec BENCHMARK.json] BASE[,BASE...] NEW[,NEW...]
       verdicts of NEW against BASE result files *)

module W = Workloads
module H = Harness

(* The same minor heap as bench/main.ml: parked continuations live
   until their wake event, and under the default size the major GC
   would dominate the event loop. *)
let minor_heap_words = 32 * 1024 * 1024
let () = Gc.set { (Gc.get ()) with Gc.minor_heap_size = minor_heap_words }

let max_reps = 50

let metric_json (m : H.metric) =
  (m.name, Json.Obj [ ("value", Json.Num m.value); ("unit", Json.Str m.unit) ])

let summary ~correct ~attempted ~failed metrics =
  Json.Obj
    [ ("correct", Json.Bool correct);
      ("attempted", Json.Num (float_of_int attempted));
      ("failed", Json.Num (float_of_int failed));
      ("metrics", Json.Obj (List.map metric_json metrics)) ]

(* ------------------------------------------------------------------ *)
(* One workload, in this process                                       *)
(* ------------------------------------------------------------------ *)

let run_workload (w : W.t) ~seed ~seconds ~trace ~scale ~min_reps =
  match
    let reps = ref [] and measured = ref 0. in
    while List.length !reps < min_reps || (!measured < seconds && List.length !reps < max_reps) do
      let r = H.run_rep ~traced:false w ~seed ~scale in
      reps := r :: !reps;
      measured := !measured +. r.host_s
    done;
    let reps = List.rev !reps in
    let peak_heap_words = (Gc.quick_stat ()).top_heap_words in
    let traced = if trace then Some (H.run_rep ~traced:true w ~seed ~scale) else None in
    H.guard reps traced;
    (reps, peak_heap_words, traced)
  with
  | exception W.Violation msg ->
    Printf.eprintf "rhodos_bench: %s: correctness violation: %s\n%!" w.name msg;
    print_endline (Json.to_string (summary ~correct:false ~attempted:1 ~failed:1 []));
    1
  | reps, peak_heap_words, traced ->
    let e2e = H.end_to_end ~peak_heap_words reps in
    let layer = Option.fold ~none:[] ~some:(H.per_layer reps) traced in
    List.iter
      (fun (m : H.metric) -> Printf.printf "%s %s %s %s\n" w.name m.name (Json.number m.value) m.unit)
      (e2e @ layer);
    let res = (List.hd reps).result in
    print_endline
      (Json.to_string
         (summary ~correct:true ~attempted:res.attempted ~failed:res.failed
            (if trace then layer else e2e)));
    0

(* ------------------------------------------------------------------ *)
(* Every workload, each in a child process                             *)
(* ------------------------------------------------------------------ *)

type child = {
  workload : W.t;
  metrics : (string * (float * string)) list;
  last : Json.t option;
  ok : bool;
}

let run_child ?(echo = true) (w : W.t) args =
  let argv = Array.of_list ((Sys.executable_name :: "--workload" :: w.name :: args)) in
  let ic = Unix.open_process_args_in Sys.executable_name argv in
  let lines = ref [] in
  (try
     while true do
       let line = input_line ic in
       if echo then print_endline line;
       lines := line :: !lines
     done
   with End_of_file -> ());
  let status = Unix.close_process_in ic in
  let metrics =
    List.filter_map
      (fun line ->
        match String.split_on_char ' ' line with
        | [ name; metric; value; unit ] when name = w.name ->
          Option.map (fun v -> (metric, (v, unit))) (float_of_string_opt value)
        | _ -> None)
      (List.rev !lines)
  in
  let last = match !lines with l :: _ -> (try Some (Json.parse l) with Json.Parse_error _ -> None) | [] -> None in
  let correct = match last with Some j -> Json.member "correct" j = Json.Bool true | None -> false in
  { workload = w; metrics; last; ok = status = Unix.WEXITED 0 && correct }

let run_all ~seed ~out =
  let children =
    List.map (fun w -> run_child w [ "--seed"; string_of_int seed; "--seconds"; "0"; "--trace"; "1" ]) W.all
  in
  Option.iter
    (fun path ->
      let workload c =
        let last k = Option.fold ~none:Json.Null ~some:(Json.member k) c.last in
        ( c.workload.name,
          Json.Obj
            [ ("correct", Json.Bool c.ok); ("attempted", last "attempted"); ("failed", last "failed");
              ("metrics",
                Json.Obj
                  (List.map
                     (fun (k, (v, u)) -> (k, Json.Obj [ ("value", Json.Num v); ("unit", Json.Str u) ]))
                     c.metrics)) ] )
      in
      let oc = open_out path in
      output_string oc
        (Json.to_string
           (Json.Obj
              [ ("seed", Json.Num (float_of_int seed));
                ("minor_heap_words", Json.Num (float_of_int minor_heap_words));
                ("workloads", Json.Obj (List.map workload children)) ]));
      output_char oc '\n';
      close_out oc;
      Printf.printf "wrote %s\n" path)
    out;
  match List.filter (fun c -> not c.ok) children with
  | [] -> 0
  | bad ->
    List.iter (fun c -> Printf.eprintf "rhodos_bench: %s failed\n" c.workload.name) bad;
    1

(* ------------------------------------------------------------------ *)
(* Smoke check                                                         *)
(* ------------------------------------------------------------------ *)

let smoke spec_path =
  let spec = Json.of_file spec_path in
  let named = Compare.spec_metrics spec "end_to_end" @ Compare.spec_metrics spec "per_layer" in
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  List.iter
    (fun w ->
      let c =
        run_child ~echo:false w [ "--scale"; "0.01"; "--reps"; "1"; "--seconds"; "0"; "--trace"; "1" ]
      in
      if not c.ok then problem "%s: exit status or summary line not clean" w.W.name;
      List.iter
        (fun (m : Compare.spec_metric) ->
          match List.assoc_opt m.name c.metrics with
          | Some (_, unit) when unit = m.unit -> ()
          | Some (_, unit) -> problem "%s: %s printed in %s, BENCHMARK.json says %s" w.name m.name unit m.unit
          | None -> problem "%s: %s not printed" w.name m.name)
        named)
    W.all;
  let spec_names = List.map (fun w -> Json.to_str (Json.member "name" w)) (Json.to_list (Json.member "workloads" spec)) in
  if spec_names <> List.map (fun w -> Some w.W.name) W.all then problem "BENCHMARK.json lists other workloads";
  match List.rev !problems with
  | [] ->
    Printf.printf "smoke: %d workloads, %d metrics each: ok\n" (List.length W.all) (List.length named);
    0
  | ps ->
    List.iter (Printf.eprintf "smoke: %s\n") ps;
    1

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)
(* ------------------------------------------------------------------ *)

let usage () =
  prerr_endline
    "usage: rhodos_bench.exe [--seed N] [--out FILE]\n\
    \       rhodos_bench.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--reps N] [--scale F]\n\
    \       rhodos_bench.exe --smoke BENCHMARK.json\n\
    \       rhodos_bench.exe compare [--spec BENCHMARK.json] BASE[,BASE...] NEW[,NEW...]";
  2

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let code =
    match args with
    | "compare" :: rest -> (
      let spec, files =
        match rest with "--spec" :: s :: files -> (s, files) | files -> ("BENCHMARK.json", files)
      in
      match files with
      | [ base; news ] ->
        let split s = String.split_on_char ',' s in
        Compare.run ~spec ~base:(split base) ~news:(split news)
      | _ -> usage ())
    | [ "--smoke"; spec ] -> smoke spec
    | _ -> (
      let opt = Hashtbl.create 8 in
      let rec parse = function
        | [] -> true
        | k :: v :: rest
          when List.mem k [ "--workload"; "--seed"; "--seconds"; "--trace"; "--reps"; "--scale"; "--out" ] ->
          Hashtbl.replace opt k v;
          parse rest
        | _ -> false
      in
      let get k conv default =
        match Hashtbl.find_opt opt k with None -> Some default | Some v -> conv v
      in
      match
        ( parse args, get "--seed" int_of_string_opt 1, get "--seconds" float_of_string_opt 0.,
          get "--trace" int_of_string_opt 0, get "--reps" int_of_string_opt 3,
          get "--scale" float_of_string_opt 1. )
      with
      | true, Some seed, Some seconds, Some trace, Some min_reps, Some scale
        when (trace = 0 || trace = 1) && min_reps >= 1 && scale > 0. -> (
        match Hashtbl.find_opt opt "--workload" with
        | None -> run_all ~seed ~out:(Hashtbl.find_opt opt "--out")
        | Some name -> (
          match W.find name with
          | Some w -> run_workload w ~seed ~seconds ~trace:(trace = 1) ~scale ~min_reps
          | None ->
            Printf.eprintf "unknown workload %S (%s)\n" name
              (String.concat ", " (List.map (fun w -> w.W.name) W.all));
            2))
      | _ -> usage ())
  in
  exit code
