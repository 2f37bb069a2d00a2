open Parsetree

(* The repo lint's per-file rules, all read off the compiler frontend's
   parse tree: comments and string literals never reach them, and a
   binding's scope is the parser's, not a guess from indentation. Most
   rules only ask which long identifiers a file mentions, so one walk
   collects them; the rest look at a construct ([try ... with _],
   module-level bindings, the event loop's functions). A file the
   frontend rejects is a [parse-failure] finding: no rule can read it. *)

let line_of = Callgraph.line_of_loc

let ident_path e =
  match (Flow.strip e).pexp_desc with
  | Pexp_ident { txt; _ } -> Some (Names.flatten txt)
  | _ -> None

let basename (f : Source.file) = Filename.basename f.Source.path

let starts_with p s =
  String.length s >= String.length p && String.sub s 0 (String.length p) = p

(* ------------------------------------------------------------------ *)
(* The identifier walk                                                 *)
(* ------------------------------------------------------------------ *)

(* A long identifier the file mentions: a value, constructor, field,
   type or class path ([Unix.gettimeofday], [Sim.Cell.cell]), or a
   module path ([open Unix], [module U = Unix], [Unix.( ... )]). *)
type ident = { path : string list; is_module : bool; line : int }

let rec components = function
  | Longident.Lident s -> [ s ]
  | Ldot (p, s) -> components p @ [ s ]
  | Lapply (f, x) -> components f @ components x

let last id = match List.rev id.path with n :: _ -> n | [] -> ""

(* The modules an identifier goes through: all of a module path, all
   but the last component of anything else. *)
let modules id =
  if id.is_module then id.path
  else match List.rev id.path with [] -> [] | _ :: rev -> List.rev rev

(* [Printf.printf] names [Stdlib.Printf.printf] too. *)
let ends_with suffix path =
  let drop = List.length path - List.length suffix in
  drop >= 0 && List.filteri (fun i _ -> i >= drop) path = suffix

let idents walk =
  let acc = ref [] in
  let add ?(is_module = false) { Location.txt; loc } =
    acc := { path = components txt; is_module; line = line_of loc } :: !acc
  in
  let module_ = add ~is_module:true in
  let super = Ast_iterator.default_iterator in
  let it =
    {
      super with
      expr =
        (fun it e ->
          (match e.pexp_desc with
          | Pexp_ident l | Pexp_construct (l, _) | Pexp_field (_, l)
          | Pexp_setfield (_, l, _) | Pexp_new l ->
            add l
          | Pexp_record (fields, _) -> List.iter (fun (l, _) -> add l) fields
          | _ -> ());
          super.expr it e);
      pat =
        (fun it p ->
          (match p.ppat_desc with
          | Ppat_construct (l, _) | Ppat_type l -> add l
          | Ppat_open (l, _) -> module_ l
          | Ppat_record (fields, _) -> List.iter (fun (l, _) -> add l) fields
          | _ -> ());
          super.pat it p);
      typ =
        (fun it t ->
          (match t.ptyp_desc with
          | Ptyp_constr (l, _) | Ptyp_class (l, _) | Ptyp_package (l, _) ->
            add l
          | _ -> ());
          super.typ it t);
      module_expr =
        (fun it m ->
          (match m.pmod_desc with Pmod_ident l -> module_ l | _ -> ());
          super.module_expr it m);
      module_type =
        (fun it m ->
          (match m.pmty_desc with
          | Pmty_ident l -> add l
          | Pmty_alias l -> module_ l
          | _ -> ());
          super.module_type it m);
      open_description =
        (fun it o ->
          module_ o.popen_expr;
          super.open_description it o);
      class_expr =
        (fun it c ->
          (match c.pcl_desc with Pcl_constr (l, _) -> add l | _ -> ());
          super.class_expr it c);
      class_type =
        (fun it c ->
          (match c.pcty_desc with Pcty_constr (l, _) -> add l | _ -> ());
          super.class_type it c);
    }
  in
  walk it;
  List.rev !acc

(* Call [f] on every expression [walk] reaches. *)
let iter_exprs walk f =
  let super = Ast_iterator.default_iterator in
  walk
    {
      super with
      expr =
        (fun it e ->
          f e;
          super.expr it e);
    }

(* ------------------------------------------------------------------ *)
(* Rules                                                               *)
(* ------------------------------------------------------------------ *)

type input = { file : Source.file; items : structure; idents : ident list }

let finding input ~rule ~line ~slug message =
  Finding.v ~rule ~file:input.file.Source.path ~line ~slug message

(* A finding for every identifier [pick] names: [Some (slug, message)]. *)
let ident_rule ~rule pick input =
  List.filter_map
    (fun id ->
      Option.map
        (fun (slug, message) -> finding input ~rule ~line:id.line ~slug message)
        (pick id))
    input.idents

(* no-wall-clock: library code lives in simulated time and seeded
   randomness, or runs stop being replayable. *)
let wall_clock =
  ident_rule ~rule:"no-wall-clock" (fun id ->
      if List.mem "Unix" (modules id) then
        Some ("Unix", "Unix: wall-clock/OS access; use Sim time instead")
      else if ends_with [ "Sys"; "time" ] id.path then
        Some ("Sys.time", "Sys.time: wall clock; use Sim.now instead")
      else if ends_with [ "Random"; "self_init" ] id.path then
        Some
          ( "Random.self_init",
            "Random.self_init: unseeded randomness breaks replay; use Rng \
             with a seed" )
      else None)

(* host-clock-hygiene: host time is read in exactly one library module,
   the profiler, whose readings flow only into its own accumulators.
   [no-wall-clock] already forbids [Unix]; this rule names the contract
   and also covers the monotonic clock the profiler itself uses. *)
let host_clocks =
  [ [ "Unix"; "gettimeofday" ]; [ "Unix"; "time" ]; [ "Unix"; "times" ];
    [ "Sys"; "time" ] ]

let host_clock input =
  if basename input.file = "profiler.ml" then []
  else
    ident_rule ~rule:"host-clock-hygiene"
      (fun id ->
        if
          List.mem "Monotonic_clock" (modules id)
          || List.exists (fun c -> ends_with c id.path) host_clocks
        then
          let name = String.concat "." id.path in
          Some
            ( name,
              name
              ^ ": host clocks are confined to the profiler \
                 (lib/obs/profiler.ml); anywhere else host time can leak \
                 into simulated state or digests" )
        else None)
      input

(* no-direct-print: output goes through [Logging] or an observability
   exporter, where the harness can capture, rate or silence it.
   [logging.ml] itself is the sanctioned sink. *)
let print_idents =
  List.map (String.split_on_char '.')
    [
      "print_string"; "print_endline"; "print_newline"; "print_char";
      "print_int"; "print_float"; "Printf.printf"; "Printf.eprintf";
      "Format.printf"; "Format.eprintf"; "prerr_string"; "prerr_endline";
      "prerr_newline";
    ]

let direct_print input =
  if basename input.file = "logging.ml" then []
  else
    ident_rule ~rule:"no-direct-print"
      (fun id ->
        List.find_opt (fun p -> ends_with p id.path) print_idents
        |> Option.map (fun p ->
               let name = String.concat "." p in
               ( name,
                 name
                 ^ ": library code must not print directly; go through \
                    Logging or an obs exporter" )))
      input

(* no-unseeded-random: the global [Random] state is unseeded by the
   harness, so the explorer and replay cannot reproduce a draw from it.
   Seeded [Random.State] values (what [Rng] wraps) are fine. *)
let unseeded_random =
  ident_rule ~rule:"no-unseeded-random" (fun id ->
      match id.path with
      | "Random" :: callee :: _ when callee <> "State" && callee <> "self_init"
        ->
        Some
          ( callee,
            Printf.sprintf
              "Random.%s uses the unseeded global state; draw from a seeded \
               Random.State (see Rng) so runs stay replayable"
              callee )
      | _ -> None)

(* paired-release: a module that acquires must also contain a release
   path. Coarse (file granularity), but it catches the classic leak
   where a new call site takes a lock no code can give back. *)
let pairings =
  let p = String.split_on_char '.' in
  let lm_release = [ p "Lock_manager.release_all"; p "with_lock" ] in
  [
    (p "Semaphore.acquire", [ p "Semaphore.release" ]);
    (p "Mutex.lock", [ p "Mutex.unlock" ]);
    (p "Lock_manager.acquire", lm_release);
    (p "Lock_manager.try_acquire", lm_release);
  ]

let paired_release input =
  let mentions p = List.find_opt (fun id -> ends_with p id.path) input.idents in
  List.filter_map
    (fun (acq, rels) ->
      match mentions acq with
      | Some id when not (List.exists (fun r -> mentions r <> None) rels) ->
        let name p = String.concat "." p in
        Some
          (finding input ~rule:"paired-release" ~line:id.line ~slug:(name acq)
             (Printf.sprintf "%s with no %s on any path" (name acq)
                (String.concat " / " (List.map name rels))))
      | _ -> None)
    pairings

(* bench-emitter: experiments feed the committed BENCH_*.json perf
   record; one that never calls [Json_out.register] silently drops out
   of it. *)
let bench_emitter input =
  if
    starts_with "exp_" (basename input.file)
    && not
         (List.exists (fun id -> ends_with [ "Json_out"; "register" ] id.path)
            input.idents)
  then
    [
      finding input ~rule:"bench-emitter" ~line:1 ~slug:"Json_out.register"
        "experiment module never calls Json_out.register: its metrics are \
         missing from the BENCH_*.json perf record";
    ]
  else []

(* no-catch-all: a [try] whose first handler is [_] swallows
   [Sim.Killed], [Assert_failure] and friends indiscriminately. The
   finding points at the [with] keyword, which the parse tree does not
   locate: the frontend's lexer finds it between the body and the
   first handler. *)
let with_line src (body : expression) (handler : pattern) =
  let lo = body.pexp_loc.loc_end and hi = handler.ppat_loc.loc_start in
  let lexbuf =
    Lexing.from_string (String.sub src lo.pos_cnum (hi.pos_cnum - lo.pos_cnum))
  in
  Lexing.set_position lexbuf lo;
  Lexer.init ();
  let rec seek () =
    match Lexer.token lexbuf with
    | Parser.WITH -> lexbuf.lex_start_p.pos_lnum
    | Parser.EOF -> hi.pos_lnum
    | _ -> seek ()
  in
  seek ()

let catch_all input =
  let acc = ref [] in
  iter_exprs (fun it -> it.structure it input.items) (fun e ->
      match e.pexp_desc with
      | Pexp_try (body, { pc_lhs = { ppat_desc = Ppat_any; _ } as p; _ } :: _)
        ->
        acc :=
          finding input ~rule:"no-catch-all"
            ~line:(with_line input.file.Source.src body p)
            ~slug:"try-with-_"
            "catch-all `try ... with _ ->` swallows Sim.Killed and unexpected \
             errors; match the expected exceptions"
          :: !acc
      | _ -> ());
  !acc

(* global-mutable-state: a module-level [ref]/[Hashtbl]/[Queue]/
   [Buffer] is shared by every simulation world in the process: it
   leaks between runs, defeats the explorer's world-per-schedule
   isolation, and is invisible to the sanitizer. State belongs in a
   record created per world. A binding with parameters is a creator
   function, not state. *)
let creators =
  [ [ "ref" ]; [ "Hashtbl"; "create" ]; [ "Queue"; "create" ];
    [ "Buffer"; "create" ] ]

let creates_state e =
  match (Flow.strip e).pexp_desc with
  | Pexp_apply (g, _) -> (
    match ident_path g with
    | Some p -> List.exists (fun c -> ends_with c p) creators
    | None -> false)
  | _ -> false

let global_state input =
  let rec scan items =
    List.concat_map
      (fun item ->
        match item.pstr_desc with
        | Pstr_value (_, vbs) ->
          List.filter_map
            (fun vb ->
              if creates_state vb.pvb_expr then
                Some
                  (finding input ~rule:"global-mutable-state"
                     ~line:(line_of vb.pvb_loc)
                     ~slug:
                       (Option.value ~default:"_"
                          (Callgraph.binding_name vb.pvb_pat))
                     "module-level mutable state is shared across simulation \
                      worlds and invisible to the sanitizer; move it into a \
                      per-world record (or a Sim.Cell)")
              else None)
            vbs
        | Pstr_module { pmb_expr = { pmod_desc = Pmod_structure items; _ }; _ }
          ->
          scan items
        | _ -> [])
      items
  in
  scan input.items

(* hot-path-alloc: [Sim.dispatch], [step] and [run] stick to the
   allocation-free queue accessors ([unsafe_min_prio], [pop_into],
   [is_empty], [length]). The option/list-returning API allocates or
   scans per call and belongs to the analysis paths
   ([controlled_step]). A reviewed use carries
   [(* static-ok: hot-path-alloc reason *)]. *)
let hot_path_functions = [ "dispatch"; "step"; "run" ]

let hot_path_forbidden =
  List.map
    (fun f -> [ "Prio_queue"; f ])
    [ "pop"; "pop_nth"; "peek"; "min_prio"; "ready"; "ready_count"; "drain" ]

let hot_path_alloc input =
  let hot_bindings =
    List.concat_map
      (fun item ->
        match item.pstr_desc with
        | Pstr_value (_, vbs) ->
          List.filter_map
            (fun vb ->
              match Callgraph.binding_name vb.pvb_pat with
              | Some fn when List.mem fn hot_path_functions ->
                Some (fn, vb.pvb_expr)
              | _ -> None)
            vbs
        | _ -> [])
      input.items
  in
  let forbidden_in fn id =
    if List.exists (fun p -> ends_with p id.path) hot_path_forbidden then
      let name = String.concat "." id.path in
      Some
        ( name,
          Printf.sprintf
            "%s in Sim.%s: the event loop must use the allocation-free queue \
             accessors (unsafe_min_prio, pop_into, is_empty); annotate the \
             line with (* static-ok: hot-path-alloc reason *) if this use is \
             reviewed"
            name fn )
    else None
  in
  if basename input.file <> "sim.ml" then []
  else
    List.concat_map
      (fun (fn, body) ->
        ident_rule ~rule:"hot-path-alloc" (forbidden_in fn)
          { input with idents = idents (fun it -> it.expr it body) })
      hot_bindings

(* raw-shared-cell: fields migrated onto [Sim.Cell] stay behind
   [Cell.get]/[Cell.update]. A raw [Hashtbl.replace t.field ...] or
   [t.field <-] mutates the payload without the access reaching the
   monitor, silently blinding the race passes. One entry per
   instrumented field; extend it when migrating more state. *)
let instrumented_fields =
  [
    ("file_agent.ml", [ "inflight"; "prefetched"; "name_cache" ]);
    ("block_service.ml", [ "inflight" ]);
    ("buffer_cache.ml", [ "buffers" ]);
    ("lock_manager.ml",
     [ "released"; "record_table"; "page_table"; "file_table" ]);
  ]

let raw_shared_cell input =
  match List.assoc_opt (basename input.file) instrumented_fields with
  | None -> []
  | Some fields ->
    let acc = ref [] in
    let add loc fld what =
      acc :=
        finding input ~rule:"raw-shared-cell" ~line:(line_of loc) ~slug:fld
          (Printf.sprintf
             "raw %s of instrumented field t.%s bypasses the sanitizer; go \
              through Sim.Cell.get/update (peek for analysis-only reads)"
             what fld)
        :: !acc
    in
    let field_of e =
      match (Flow.strip e).pexp_desc with
      | Pexp_field (_, { txt; _ }) ->
        let fld = Names.last txt in
        if List.mem fld fields then Some fld else None
      | _ -> None
    in
    iter_exprs (fun it -> it.structure it input.items) (fun e ->
        match e.pexp_desc with
        | Pexp_setfield (_, { txt; _ }, _) when List.mem (Names.last txt) fields
          ->
          add e.pexp_loc (Names.last txt) "mutation"
        | Pexp_apply (g, (Asttypes.Nolabel, a0) :: _) -> (
          match (ident_path g, field_of a0) with
          | Some [ ":=" ], Some fld -> add e.pexp_loc fld "mutation"
          | Some ("Hashtbl" :: _), Some fld ->
            add e.pexp_loc fld "Hashtbl access"
          | _ -> ())
        | _ -> ());
    !acc

(* hashtbl-iter-order: scoped per top-level structure item, a
   [Hashtbl.iter]/[fold] (or the same walk of an [Lru] table, which is
   in table order) whose closure argument conses a list is flagged
   unless the item mentions an identifier whose last component starts
   with "sort" ([List.sort], [sort_uniq], a local [sorted_keys]
   helper); [resort_x] does not absolve. *)
let subtree_has_sort item =
  List.exists
    (fun id -> starts_with "sort" (last id))
    (idents (fun it -> it.structure_item it item))

let expr_has_cons e =
  let found = ref false in
  iter_exprs (fun it -> it.expr it e) (fun e ->
      match e.pexp_desc with
      | Pexp_construct ({ txt; _ }, Some _) when Names.last txt = "::" ->
        found := true
      | _ -> ());
  !found

let hashtbl_iter_order input =
  let acc = ref [] in
  let check e =
    match e.pexp_desc with
    | Pexp_apply (g, args) -> (
      match ident_path g with
      | Some ([ ("Hashtbl" | "Lru"); ("iter" | "fold") ] as p)
        when List.exists (fun (_, a) -> expr_has_cons a) args ->
        let which = String.concat "." p in
        acc :=
          finding input ~rule:"hashtbl-iter-order" ~line:(line_of e.pexp_loc)
            ~slug:which
            (Printf.sprintf
               "%s accumulates a list in hash-bucket order with no sort in \
                sight; sort before the result reaches a digest or caller"
               which)
          :: !acc
      | _ -> ())
    | _ -> ()
  in
  List.iter
    (fun item ->
      if not (subtree_has_sort item) then
        iter_exprs (fun it -> it.structure_item it item) check)
    input.items;
  !acc

(* ------------------------------------------------------------------ *)
(* Rule sets                                                           *)
(* ------------------------------------------------------------------ *)

let rules =
  [
    ("no-wall-clock", wall_clock);
    ("host-clock-hygiene", host_clock);
    ("no-direct-print", direct_print);
    ("no-unseeded-random", unseeded_random);
    ("hashtbl-iter-order", hashtbl_iter_order);
    ("global-mutable-state", global_state);
    ("raw-shared-cell", raw_shared_cell);
    ("hot-path-alloc", hot_path_alloc);
    ("no-catch-all", catch_all);
    ("paired-release", paired_release);
    ("bench-emitter", bench_emitter);
  ]

type profile = Library | Bench

let profile_rules = function
  | Library ->
    List.filter (fun r -> r <> "bench-emitter") (List.map fst rules)
  | Bench ->
    [ "no-wall-clock"; "no-catch-all"; "paired-release"; "bench-emitter" ]

let static_rules =
  [ "raw-shared-cell"; "no-unseeded-random"; "hashtbl-iter-order" ]

let run ~rules:selected files =
  let checks = List.filter (fun (name, _) -> List.mem name selected) rules in
  Finding.sort
    (List.concat_map
       (fun (file : Source.file) ->
         match file.Source.ast with
         | Some items ->
           let input =
             { file; items; idents = idents (fun it -> it.structure it items) }
           in
           List.concat_map (fun (_, check) -> check input) checks
         | None ->
           List.map
             (fun (line, message) ->
               Finding.v ~rule:"parse-failure" ~file:file.Source.path ~line
                 ~slug:"parse-failure" message)
             (Option.to_list file.Source.parse_error))
       files)
