open Parsetree
module Lint = Rhodos_analysis.Lint

(* AST reimplementations of the token-based lint rules that exist in
   [Lint]. Same rule names, so one baseline and one suppression syntax
   cover both engines; the text versions remain the fallback for files
   that do not parse. Being syntax-directed, these versions do not
   trip over identifiers that merely contain a keyword, or over
   multi-line [let ... in] bindings — the token engine's known weak
   spots. *)

let line_of = Callgraph.line_of_loc

let ident_path e =
  match (Flow.strip e).pexp_desc with
  | Pexp_ident { txt; _ } -> Some (Names.flatten txt)
  | _ -> None

(* The [global-mutable-state] AST port used to live here; the race
   pass's [unmonitored-shared-state] superseded it with real
   reachability (a global only fires when concurrent roots write it),
   so parseable sources no longer get the blanket token rule. *)

(* ------------------------------------------------------------------ *)
(* raw-shared-cell                                                     *)
(* ------------------------------------------------------------------ *)

let instrumented_fields = Lint.instrumented_fields

let raw_shared_cell (f : Source.file) items =
  match List.assoc_opt (Filename.basename f.Source.path) instrumented_fields with
  | None -> []
  | Some fields ->
    let acc = ref [] in
    let add loc fld what =
      acc :=
        Finding.v ~rule:"raw-shared-cell" ~file:f.Source.path
          ~line:(line_of loc) ~slug:fld
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
    let it =
      {
        Ast_iterator.default_iterator with
        expr =
          (fun it e ->
            (match e.pexp_desc with
            | Pexp_setfield (_, { txt; _ }, _)
              when List.mem (Names.last txt) fields ->
              add e.pexp_loc (Names.last txt) "mutation"
            | Pexp_apply (g, (Asttypes.Nolabel, a0) :: _) -> (
              match (ident_path g, field_of a0) with
              | Some [ ":=" ], Some fld -> add e.pexp_loc fld "mutation"
              | Some ("Hashtbl" :: _), Some fld ->
                add e.pexp_loc fld "Hashtbl access"
              | _ -> ())
            | _ -> ());
            Ast_iterator.default_iterator.expr it e);
      }
    in
    List.iter (fun item -> it.Ast_iterator.structure_item it item) items;
    List.rev !acc

(* ------------------------------------------------------------------ *)
(* no-unseeded-random                                                  *)
(* ------------------------------------------------------------------ *)

let unseeded_random (f : Source.file) items =
  let acc = ref [] in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun it e ->
          (match e.pexp_desc with
          | Pexp_ident { txt; _ } -> (
            match Names.flatten txt with
            | "Random" :: callee :: _
              when callee <> "State" && callee <> "self_init" ->
              acc :=
                Finding.v ~rule:"no-unseeded-random" ~file:f.Source.path
                  ~line:(line_of e.pexp_loc) ~slug:callee
                  (Printf.sprintf
                     "Random.%s uses the unseeded global state; draw from a \
                      seeded Random.State (see Rng) so runs stay replayable"
                     callee)
                :: !acc
            | _ -> ())
          | _ -> ());
          Ast_iterator.default_iterator.expr it e);
    }
  in
  List.iter (fun item -> it.Ast_iterator.structure_item it item) items;
  List.rev !acc

(* ------------------------------------------------------------------ *)
(* hashtbl-iter-order                                                  *)
(* ------------------------------------------------------------------ *)

(* Scoped per top-level structure item: a [Hashtbl.iter]/[fold] (or
   the same walk of an [Lru] table, which is in table order) whose
   closure argument conses a list is flagged unless the enclosing item
   mentions an identifier whose last component starts with "sort"
   ([List.sort], [sort_uniq], a local [sorted_keys] helper). Unlike
   the token rule's character windows, an identifier like [resort_x]
   does not absolve (prefix match on the component, not substring). *)

let starts_with p s =
  String.length s >= String.length p && String.sub s 0 (String.length p) = p

let subtree_has_sort item =
  let found = ref false in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun it e ->
          (match e.pexp_desc with
          | Pexp_ident { txt; _ } ->
            if starts_with "sort" (Names.last txt) then found := true
          | _ -> ());
          Ast_iterator.default_iterator.expr it e);
    }
  in
  it.Ast_iterator.structure_item it item;
  !found

let expr_has_cons e =
  let found = ref false in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun it e ->
          (match e.pexp_desc with
          | Pexp_construct ({ txt; _ }, Some _) when Names.last txt = "::" ->
            found := true
          | _ -> ());
          Ast_iterator.default_iterator.expr it e);
    }
  in
  it.Ast_iterator.expr it e;
  !found

let hashtbl_iter_order (f : Source.file) items =
  let acc = ref [] in
  let check_item item =
    if not (subtree_has_sort item) then begin
      let it =
        {
          Ast_iterator.default_iterator with
          expr =
            (fun it e ->
              (match e.pexp_desc with
              | Pexp_apply (g, args) -> (
                match ident_path g with
                | Some [ ("Hashtbl" | "Lru"); ("iter" | "fold") ]
                  when List.exists (fun (_, a) -> expr_has_cons a) args ->
                  let which =
                    match ident_path g with
                    | Some p -> String.concat "." p
                    | None -> "Hashtbl.iter"
                  in
                  acc :=
                    Finding.v ~rule:"hashtbl-iter-order" ~file:f.Source.path
                      ~line:(line_of e.pexp_loc) ~slug:which
                      (Printf.sprintf
                         "%s accumulates a list in hash-bucket order with \
                          no sort in sight; sort before the result reaches \
                          a digest or caller"
                         which)
                    :: !acc
                | _ -> ())
              | _ -> ());
              Ast_iterator.default_iterator.expr it e);
        }
      in
      it.Ast_iterator.structure_item it item
    end
  in
  List.iter check_item items;
  List.rev !acc

(* ------------------------------------------------------------------ *)

let migrated_rules =
  [ "raw-shared-cell"; "no-unseeded-random"; "hashtbl-iter-order" ]

let run (files : Source.file list) =
  Finding.sort
    (List.concat_map
       (fun (f : Source.file) ->
         match f.Source.ast with
         | None -> []
         | Some items ->
           raw_shared_cell f items
           @ unseeded_random f items
           @ hashtbl_iter_order f items)
       files)
