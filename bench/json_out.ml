(* Machine-readable bench results.

   Every experiment module registers itself at load time
   (`Json_out.register "E5"`) — a lint rule insists on it, so no
   experiment can silently drop out of the perf record — and reports
   its key numbers with `Json_out.metric` while it runs. `main.exe
   --json <name>` runs the tracked experiments and writes the collected
   metrics to BENCH_<name>.json; the committed BENCH_baseline.json is
   the trajectory anchor, and `main.exe --baseline-check` fails when a
   key other than the Gc deltas regenerates differently.

   Values are simulated-time measurements and counters, so the file is
   deterministic: regenerating it on an unchanged tree must be a
   no-op. *)

let order : string list ref = ref []
let metrics : (string, (string * float) list ref) Hashtbl.t = Hashtbl.create 16

let register id =
  if not (Hashtbl.mem metrics id) then begin
    order := id :: !order;
    Hashtbl.replace metrics id (ref [])
  end

let registered id = Hashtbl.mem metrics id

(* Re-reporting a key overwrites it in place (keeping first-report
   order), so an experiment re-run in the same process — a repeated
   bench iteration, or the perf gate after a plain run — replaces its
   numbers instead of emitting duplicate JSON keys. *)
let metric id key value =
  match Hashtbl.find_opt metrics id with
  | Some l ->
    if List.mem_assoc key !l then
      l := List.map (fun (k, v) -> if k = key then (k, value) else (k, v)) !l
    else l := (key, value) :: !l
  | None -> invalid_arg (Printf.sprintf "Json_out.metric: %S not registered" id)

(* Plain floats, trimmed: counters print as integers, times keep
   microsecond-ish precision without float noise. *)
let number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.4f" v

let escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let to_json ?only () =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\n";
  let ids = List.rev !order in
  let ids =
    match only with
    | None -> ids
    | Some keep -> List.filter (fun id -> List.mem id keep) ids
  in
  List.iteri
    (fun i id ->
      if i > 0 then Buffer.add_string buf ",\n";
      Buffer.add_string buf (Printf.sprintf "  %S: {" (escape id));
      let kvs = List.rev !(Hashtbl.find metrics id) in
      List.iteri
        (fun j (k, v) ->
          if j > 0 then Buffer.add_char buf ',';
          Buffer.add_string buf
            (Printf.sprintf "\n    %S: %s" (escape k) (number v)))
        kvs;
      if kvs <> [] then Buffer.add_string buf "\n  ";
      Buffer.add_char buf '}')
    ids;
  Buffer.add_string buf "\n}\n";
  Buffer.contents buf

let write ?only ~name () =
  let path = Printf.sprintf "BENCH_%s.json" name in
  let oc = open_out path in
  output_string oc (to_json ?only ());
  close_out oc;
  path

(* Run one experiment and report its process-wide Gc deltas alongside
   its own metrics: minor/major words and collection counts are
   deterministic for a given binary (simulated time never blocks on
   the host), so they belong in the committed perf record and turn
   allocation regressions into baseline diffs. *)
let with_gc id run =
  let m0 = Gc.minor_words () in
  let s0 = Gc.quick_stat () in
  run ();
  let s1 = Gc.quick_stat () in
  (* [Gc.minor_words] reads the allocation pointer (exact between
     collections); quick_stat's minor_words only advances at minor
     collections. *)
  metric id "gc_minor_words" (Gc.minor_words () -. m0);
  metric id "gc_major_words" (s1.Gc.major_words -. s0.Gc.major_words);
  metric id "gc_minor_collections"
    (float_of_int (s1.Gc.minor_collections - s0.Gc.minor_collections));
  metric id "gc_major_collections"
    (float_of_int (s1.Gc.major_collections - s0.Gc.major_collections))

(* The committed BENCH_*.json files are this module's own output: one
   ["key": value] pair per line, each object opened by an ["ID": {]
   line. A line scan is therefore a complete parse. Returns
   ((object, key), value text) pairs in file order. *)
let entries_of_lines lines =
  let obj = ref "" in
  List.filter_map
    (fun line ->
      let line = String.trim line in
      match String.index_opt line ':' with
      | Some i when String.length line > 2 && line.[0] = '"' ->
        let key = String.sub line 1 (i - 2) in
        let v = String.trim (String.sub line (i + 1) (String.length line - i - 1)) in
        if String.starts_with ~prefix:"{" v then begin
          obj := key;
          None
        end
        else
          let v =
            if String.ends_with ~suffix:"," v then String.sub v 0 (String.length v - 1)
            else v
          in
          Some ((!obj, key), v)
      | _ -> None)
    lines

let read_entries path =
  entries_of_lines
    (String.split_on_char '\n' (In_channel.with_open_text path In_channel.input_all))

(* The paper-numbers gate: every key of the committed file at [path]
   except the Gc deltas, which move with the compiled binary, must
   regenerate with the same text from the experiments in [only], and
   no new key may appear. Differences go to stderr. *)
let check_baseline ~only path =
  let tracked =
    List.filter (fun ((_, k), _) -> not (String.starts_with ~prefix:"gc_" k))
  in
  let committed = tracked (read_entries path) in
  let current = tracked (entries_of_lines (String.split_on_char '\n' (to_json ~only ()))) in
  let show = Option.value ~default:"(none)" in
  let changed =
    List.filter_map
      (fun (k, v) ->
        match List.assoc_opt k current with
        | Some v' when v' = v -> None
        | v' -> Some (k, Some v, v'))
      committed
    @ List.filter_map
        (fun (k, v') -> if List.mem_assoc k committed then None else Some (k, None, Some v'))
        current
  in
  List.iter
    (fun ((o, k), v, v') ->
      Printf.eprintf "baseline: %s.%s %s -> %s\n" o k (show v) (show v'))
    changed;
  Printf.eprintf "baseline: %d of %d tracked keys differ from %s\n" (List.length changed)
    (List.length committed) path;
  changed = []
