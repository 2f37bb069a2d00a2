open Parsetree
module SS = Set.Make (String)

type kind = Global | Field | Cell

type role = Data | Sync | Unknown

type access = {
  a_fn : string;
  a_file : string;
  a_line : int;
  a_write : bool;
  a_locks : string list;
}

type location = {
  l_id : string;
  l_kind : kind;
  l_role : role;
  l_cell_name : string option;
  l_file : string;
  l_line : int;
  l_roots : (string * int) list;
  l_accesses : access list;
  l_locks : string list;
}

type result = {
  findings : Finding.t list;
  locations : location list;
}

(* The simulator core IS the concurrency mechanism (its run queues
   and process tables sit beneath the model the pass checks), and the
   observability plane is digest-neutral by its own contract. *)
let exempt_file path =
  let base = Filename.basename path in
  List.mem base [ "sim.ml"; "prio_queue.ml" ]
  || List.exists (fun seg -> seg = "obs") (String.split_on_char '/' path)

let line_of = Callgraph.line_of_loc

let leaf_of_path e =
  Option.map
    (fun p ->
      match List.rev (String.split_on_char '.' p) with
      | l :: _ -> l
      | [] -> p)
    (Flow.render_path e)

(* Tokens that survive [Lock_manager.release_all]: semaphores, ivar
   handoffs and the Cell.update RMW pseudo-token have their own
   release discipline. *)
let is_sticky tok =
  let pre p =
    String.length tok >= String.length p && String.sub tok 0 (String.length p) = p
  in
  pre "sem:" || pre "ivar:" || pre "cell:"

(* ------------------------------------------------------------------ *)
(* Inventory                                                           *)
(* ------------------------------------------------------------------ *)

type inv = {
  i_id : string;
  i_kind : kind;
  mutable i_role : role;
  mutable i_cell_name : string option;
  i_file : string;
  i_line : int;
}

let mutable_creator_paths =
  [ [ "ref" ]; [ "Hashtbl"; "create" ]; [ "Queue"; "create" ];
    [ "Buffer"; "create" ]; [ "Lru"; "create" ] ]

let is_mutable_creation e =
  match (Flow.strip e).pexp_desc with
  | Pexp_apply (f, _) -> (
    match (Flow.strip f).pexp_desc with
    | Pexp_ident { txt; _ } -> List.mem (Names.flatten txt) mutable_creator_paths
    | _ -> false)
  | _ -> false

(* [Sim.Cell.create ?role ?name sim v] — extract the declared role
   (default Data, the checked discipline) and the [~name] string
   literal when static (it matches the dynamic sanitizer's naming). *)
let cell_create_info env e =
  match (Flow.strip e).pexp_desc with
  | Pexp_apply (f, args) -> (
    match (Flow.strip f).pexp_desc with
    | Pexp_ident { txt; _ }
      when Names.canonical env (Names.flatten txt) = "Sim.Cell.create" ->
      let role = ref Data in
      let name = ref None in
      List.iter
        (fun (l, a) ->
          match l with
          | Asttypes.Labelled "role" -> (
            match (Flow.strip a).pexp_desc with
            | Pexp_construct ({ txt; _ }, _) when Names.last txt = "Sync" ->
              role := Sync
            | _ -> ())
          | Asttypes.Labelled "name" -> (
            match (Flow.strip a).pexp_desc with
            | Pexp_constant (Pconst_string (s, _, _)) -> name := Some s
            | _ -> ())
          | _ -> ())
        args;
      Some (!role, !name)
    | _ -> None)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Scan output                                                         *)
(* ------------------------------------------------------------------ *)

type unit_acc = {
  ua_loc : string;
  ua_write : bool;
  ua_line : int;
  mutable ua_held : SS.t;  (* ivar fill post-pass widens this *)
  ua_released : bool;
  ua_seq : int;
}

type unit_out = {
  u_name : string;
  u_file : string;
  u_is_root : bool;
  mutable u_acc : unit_acc list;
  mutable u_calls : (string * SS.t * bool * int) list;
      (* callee, must-held at site, release_all seen before, seq *)
  mutable u_fills : (string * int) list;
  mutable u_spawn_seq : int option;
}

type root_target =
  | Rbody of string  (* scanned as its own unit under this name *)
  | Rcallee of string

type root = { r_id : string; r_mult : int; r_target : root_target }

type pending_body = {
  p_id : string;
  p_mult : int;
  p_expr : expression;
  p_env : Names.env;
  p_file : string;
  p_localmuts : (string * string) list;
}

type ctx = {
  graph : Callgraph.t;
  lock : Lockpass.result;
  inv : (string, inv) Hashtbl.t;
  wrappers : (string, bool * [ `Arg | `Fld of string ] * bool) Hashtbl.t;
      (* node -> (is_write, path spec, is_update) *)
  fdecls : (string, string list ref) Hashtbl.t;
      (* field name -> modules declaring a record field of that name *)
  parents : (string, string) Hashtbl.t;
      (* closure unit -> the unit whose scan created it *)
  callers : (string, int) Hashtbl.t;
  units : (string, unit_out) Hashtbl.t;
  mutable roots : root list;
  mutable root_seen : SS.t;
  mutable pending : pending_body list;
}

let declare_field ctx m n =
  let l = Flow.find_or_add ctx.fdecls n (fun () -> ref []) in
  if not (List.mem m !l) then l := m :: !l

(* Pick the declaring module for field [n] seen from module [m] (with
   an optional [hint] from a qualified access like [t.Explore.runs]):
   the qualifier wins, then the accessing module, then the unique
   declaring module. Ambiguous cross-module accesses resolve to
   nothing — a documented under-approximation that beats gluing
   unrelated record types into one location. *)
let field_module ctx ~m ~hint n =
  let decls =
    match Hashtbl.find_opt ctx.fdecls n with Some l -> !l | None -> []
  in
  match hint with
  | Some h when List.mem h decls -> Some h
  | _ ->
    if List.mem m decls then Some m
    else (match decls with [ m0 ] -> Some m0 | _ -> None)

let resolve_field ctx ~m ~hint n =
  match field_module ctx ~m ~hint n with
  | Some md ->
    let id = "field:" ^ md ^ "." ^ n in
    if Hashtbl.mem ctx.inv id then Some id else None
  | None -> None

let hint_of_lid (txt : Longident.t) =
  match List.rev (Names.flatten txt) with
  | _ :: m :: _ -> Some m
  | _ -> None

(* ref:<owning-unit>:<name> — the owner may itself contain colons
   (closure unit ids do), the variable name never does. *)
let ref_owner id =
  if String.length id > 4 && String.sub id 0 4 = "ref:" then
    match String.rindex_opt id ':' with
    | Some i when i > 4 -> Some (String.sub id 4 (i - 4))
    | _ -> None
  else None

let rec descends ctx u owner =
  u = owner
  || (match Hashtbl.find_opt ctx.parents u with
     | Some p -> descends ctx p owner
     | None -> false)

let register ctx id kind ~role ~cell_name ~file ~line =
  match Hashtbl.find_opt ctx.inv id with
  | Some i ->
    (* A later create site can sharpen what an access site guessed:
       Data wins over Sync wins over Unknown, first name kept. *)
    (match (i.i_role, role) with
    | Unknown, r -> i.i_role <- r
    | Sync, Data -> i.i_role <- Data
    | _ -> ());
    if i.i_cell_name = None then i.i_cell_name <- cell_name
  | None ->
    Hashtbl.replace ctx.inv id
      { i_id = id; i_kind = kind; i_role = role; i_cell_name = cell_name;
        i_file = file; i_line = line }

(* Inventory pass 1 — record types: every field declaration feeds the
   name -> declaring-modules index (for access resolution), mutable
   fields become [field:Mod.name] locations. Runs over every file
   before pass 2 so a record literal in one module can resolve a field
   declared in another. *)
let inventory_types ctx (f : Source.file) items =
  let file = f.Source.path and m = f.Source.module_name in
  Callgraph.walk_structure
    (fun _prefix item ->
      match item.pstr_desc with
      | Pstr_type (_, tds) ->
        List.iter
          (fun td ->
            match td.ptype_kind with
            | Ptype_record labels ->
              List.iter
                (fun ld ->
                  declare_field ctx m ld.pld_name.txt;
                  if ld.pld_mutable = Asttypes.Mutable then
                    register ctx
                      ("field:" ^ m ^ "." ^ ld.pld_name.txt)
                      Field ~role:Unknown ~cell_name:None ~file
                      ~line:(line_of ld.pld_loc))
                labels
            | _ -> ())
          tds
      | _ -> ())
    f.Source.module_name items

(* Inventory pass 2 — values: module-level raw mutables become
   [global:] locations, record fields initialised with a raw container
   become [field:] locations, and every [Sim.Cell.create] bound to a
   let or a record field names a [cell:] location. *)
let inventory_values ctx env (f : Source.file) items =
  let file = f.Source.path and m = f.Source.module_name in
  let reg_cell name e =
    match cell_create_info env e with
    | Some (role, cn) ->
      register ctx ("cell:" ^ name) Cell ~role ~cell_name:cn ~file
        ~line:(line_of e.pexp_loc);
      true
    | None -> false
  in
  let expr_iter =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun it e ->
          (match e.pexp_desc with
          | Pexp_let (_, vbs, _) ->
            List.iter
              (fun vb ->
                match Callgraph.binding_name vb.pvb_pat with
                | Some n -> ignore (reg_cell n vb.pvb_expr)
                | None -> ())
              vbs
          | Pexp_record (fields, _) ->
            List.iter
              (fun (({ txt; _ } : Longident.t Asttypes.loc), fe) ->
                let n = Names.last txt in
                if not (reg_cell n fe) then
                  if is_mutable_creation fe then
                    (* a mutable container in a (possibly immutable)
                       record field is shared mutable state too *)
                    let fm =
                      match
                        field_module ctx ~m ~hint:(hint_of_lid txt) n
                      with
                      | Some fm -> fm
                      | None ->
                        declare_field ctx m n;
                        m
                    in
                    register ctx
                      ("field:" ^ fm ^ "." ^ n)
                      Field ~role:Unknown ~cell_name:None ~file
                      ~line:(line_of fe.pexp_loc))
              fields
          | _ -> ());
          Ast_iterator.default_iterator.expr it e);
    }
  in
  Callgraph.walk_structure
    (fun prefix item ->
      match item.pstr_desc with
      | Pstr_value (_, vbs) ->
        List.iter
          (fun vb ->
            (match Callgraph.binding_name vb.pvb_pat with
            | Some n ->
              if not (reg_cell n vb.pvb_expr) then
                if is_mutable_creation vb.pvb_expr then
                  register ctx
                    ("global:" ^ prefix ^ "." ^ n)
                    Global ~role:Unknown ~cell_name:None ~file
                    ~line:(line_of vb.pvb_loc)
            | None -> ());
            expr_iter.Ast_iterator.expr expr_iter vb.pvb_expr)
          vbs
      | Pstr_eval (e, _) -> expr_iter.Ast_iterator.expr expr_iter e
      | _ -> ())
    f.Source.module_name items

(* ------------------------------------------------------------------ *)
(* Cell accessor wrappers                                              *)
(* ------------------------------------------------------------------ *)

(* lib code goes through tiny per-module wrappers ([let tbl =
   Sim.Cell.get], [let bufs t = Sim.Cell.get t.buffers], [let mut c f
   = Sim.Cell.update c ...]); recognising the three shapes keeps the
   access sites attached to the real cell. *)
let wrapper_of env body =
  let canon e =
    match (Flow.strip e).pexp_desc with
    | Pexp_ident { txt; _ } -> Some (Names.canonical env (Names.flatten txt))
    | _ -> None
  in
  let spec_of params a0 =
    match (Flow.strip a0).pexp_desc with
    | Pexp_ident { txt = Longident.Lident v; _ } when List.mem v params ->
      Some `Arg
    | Pexp_field (b, { txt; _ }) -> (
      match (Flow.strip b).pexp_desc with
      | Pexp_ident { txt = Longident.Lident v; _ } when List.mem v params ->
        Some (`Fld (Names.last txt))
      | _ -> None)
    | _ -> None
  in
  let classify op spec =
    match op with
    | "Sim.Cell.get" -> Some (false, spec, false)
    | "Sim.Cell.set" -> Some (true, spec, false)
    | "Sim.Cell.update" -> Some (true, spec, true)
    | _ -> None
  in
  match canon body with
  | Some op -> classify op `Arg (* eta alias: [let tbl = Sim.Cell.get] *)
  | None ->
    let rec peel params e =
      match (Flow.strip e).pexp_desc with
      | Pexp_fun (_, _, pat, b) when List.length params < 2 ->
        let params =
          match Callgraph.binding_name pat with
          | Some v -> v :: params
          | None -> params
        in
        peel params b
      | Pexp_apply (f, args) -> (
        match canon f with
        | Some op -> (
          match Flow.nolabel_args args with
          | a0 :: _ -> (
            match spec_of params a0 with
            | Some spec -> classify op spec
            | None -> None)
          | [] -> None)
        | None -> None)
      | _ -> None
    in
    peel [] body

(* ------------------------------------------------------------------ *)
(* Container operations on raw locations                               *)
(* ------------------------------------------------------------------ *)

let container_roots = [ "Hashtbl"; "Queue"; "Buffer"; "Stack"; "Lru" ]

let container_writes =
  [ "add"; "replace"; "remove"; "reset"; "clear"; "push"; "pop"; "take";
    "add_string"; "add_char"; "add_bytes"; "add_subbytes"; "add_substring";
    "transfer"; "filter_map_inplace"; "truncate" ]

let container_op n =
  match String.split_on_char '.' n with
  | [ m; op ] when List.mem m container_roots ->
    Some (List.mem op container_writes)
  | _ -> None

let cell_ops = [ "Sim.Cell.get"; "Sim.Cell.set"; "Sim.Cell.update";
                 "Sim.Cell.peek" ]
let ivar_read = "Sim.Ivar.read"
let ivar_fill = "Sim.Ivar.fill"

(* ------------------------------------------------------------------ *)
(* Per-unit scan: accesses with must-held locksets, call sites,       *)
(* spawn roots                                                         *)
(* ------------------------------------------------------------------ *)

let callers_mult ctx fn =
  match Hashtbl.find_opt ctx.callers fn with
  | Some n when n >= 2 -> 2
  | _ -> 1

let scan_unit ctx ~name ~file ~env ~is_root ~mult_hint ~localmuts body =
  let u =
    { u_name = name; u_file = file; u_is_root = is_root; u_acc = [];
      u_calls = []; u_fills = []; u_spawn_seq = None }
  in
  Hashtbl.replace ctx.units name u;
  let umod = Source.module_name_of_path file in
  let localmuts = ref localmuts in
  let seq = ref 0 in
  let held = ref SS.empty in
  let released = ref false in
  let loop_depth = ref 0 in
  let hof_depth = ref 0 in
  let local_fns = ref [] in
  let use_counts = Hashtbl.create 32 in
  let count_iter =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun it e ->
          (match e.pexp_desc with
          | Pexp_ident { txt = Longident.Lident n; _ } ->
            Hashtbl.replace use_counts n
              (1 + Option.value ~default:0 (Hashtbl.find_opt use_counts n))
          | _ -> ());
          Ast_iterator.default_iterator.expr it e);
    }
  in
  count_iter.Ast_iterator.expr count_iter body;
  let uses n = Option.value ~default:0 (Hashtbl.find_opt use_counts n) in
  let defined n = Callgraph.defined ctx.graph n in
  let callee e = Callgraph.callee_of_expr env ~defined e in
  let access loc write line =
    incr seq;
    u.u_acc <-
      { ua_loc = loc; ua_write = write; ua_line = line; ua_held = !held;
        ua_released = !released; ua_seq = !seq }
      :: u.u_acc
  in
  let record_call n =
    incr seq;
    u.u_calls <- (n, !held, !released, !seq) :: u.u_calls
  in
  let loc_of_path pe =
    match (Flow.strip pe).pexp_desc with
    | Pexp_ident { txt = Longident.Lident n; _ } -> (
      match List.assoc_opt n !localmuts with
      | Some id -> Some id
      | None ->
        let gdef id = Hashtbl.mem ctx.inv ("global:" ^ id) in
        let r = Names.resolve env ~defined:gdef [ n ] in
        if gdef r then Some ("global:" ^ r) else None)
    | Pexp_ident { txt; _ } ->
      let r = Names.canonical env (Names.flatten txt) in
      if Hashtbl.mem ctx.inv ("global:" ^ r) then Some ("global:" ^ r)
      else None
    | Pexp_field (_, { txt; _ }) ->
      resolve_field ctx ~m:umod ~hint:(hint_of_lid txt) (Names.last txt)
    | _ -> None
  in
  let mark_concurrent () =
    if u.u_spawn_seq = None then u.u_spawn_seq <- Some !seq
  in
  let add_root r =
    if not (SS.mem r.r_id ctx.root_seen) then begin
      ctx.root_seen <- SS.add r.r_id ctx.root_seen;
      ctx.roots <- r :: ctx.roots
    end
  in
  let spawn_mult () =
    if
      !loop_depth > 0 || !hof_depth > 0
      || List.exists (fun fn -> uses fn >= 2) !local_fns
    then 2
    else mult_hint
  in
  let snap () = (!held, !released) in
  let restore (h, r) =
    held := h;
    released := r
  in
  let rec w =
    {
      Flow.graph = ctx.graph;
      env;
      summaries = ctx.lock.Lockpass.summaries;
      join = Flow.Must;
      get = snap;
      set = restore;
      merge = (fun (h1, r1) (h2, r2) -> (SS.inter h1 h2, r1 || r2));
      expr = scan;
      arg = scan_arg;
      call;
      lock;
      spawn = spawn_site;
      handlers = (fun _ body -> body ());
      protect =
        (fun body finally ->
          body ();
          finally ());
    }
  and scan e =
    match e.pexp_desc with
    | Pexp_while _ | Pexp_for _ ->
      incr loop_depth;
      Flow.arms w e;
      decr loop_depth
    | Pexp_let (_, vbs, lb) ->
      List.iter
        (fun vb ->
          let bound = Callgraph.binding_name vb.pvb_pat in
          match (bound, (Flow.strip vb.pvb_expr).pexp_desc) with
          | Some n, (Pexp_fun _ | Pexp_function _) ->
            (* local function: inline its body for accesses; remember
               the name so a spawn inside it inherits the call
               multiplicity *)
            local_fns := n :: !local_fns;
            scan vb.pvb_expr;
            local_fns := List.tl !local_fns
          | Some n, _ when is_mutable_creation vb.pvb_expr ->
            let id = Printf.sprintf "ref:%s:%s" name n in
            localmuts := (n, id) :: !localmuts;
            register ctx id Field ~role:Unknown ~cell_name:None ~file
              ~line:(line_of vb.pvb_loc)
          | _ -> scan vb.pvb_expr)
        vbs;
      scan lb
    | Pexp_record (fields, base)
      when List.length
             (List.filter
                (fun (({ txt; _ } : Longident.t Asttypes.loc), _) ->
                  List.mem (Names.last txt) Callgraph.conn_fields)
                fields)
           >= 5 ->
      (* a Service_conn: each field closure is a server handler any
         number of clients can invoke concurrently *)
      mark_concurrent ();
      Option.iter scan base;
      List.iter
        (fun (({ txt; _ } : Longident.t Asttypes.loc), fe) ->
          conn_root (Names.last txt) fe)
        fields
    | Pexp_field (b, { txt; _ }) -> (
      scan b;
      match resolve_field ctx ~m:umod ~hint:(hint_of_lid txt) (Names.last txt)
      with
      | Some id -> access id false (line_of e.pexp_loc)
      | None -> ())
    | Pexp_setfield (b, { txt; _ }, v) -> (
      scan b;
      scan v;
      match resolve_field ctx ~m:umod ~hint:(hint_of_lid txt) (Names.last txt)
      with
      | Some id -> access id true (line_of e.pexp_loc)
      | None -> ())
    | Pexp_ident { txt; _ } -> (
      match loc_of_path e with
      | Some id -> access id false (line_of e.pexp_loc)
      | None ->
        let r = Names.resolve_lid env ~defined txt in
        if defined r then record_call r)
    | _ -> Flow.arms w e
  and scan_arg a =
    match (Flow.strip a).pexp_desc with
    | Pexp_fun _ | Pexp_function _ ->
      incr hof_depth;
      scan a;
      decr hof_depth
    | _ -> scan a
  and root_target id mult h =
    match callee h with
    | Some n when defined n ->
      add_root { r_id = id; r_mult = mult; r_target = Rcallee n }
    | _ -> ()
  and conn_root label fe =
    let line = line_of fe.pexp_loc in
    let id =
      Printf.sprintf "conn:%s:%s:%d" label (Filename.basename file) line
    in
    match (Flow.strip fe).pexp_desc with
    | Pexp_fun _ | Pexp_function _ -> root_of_closure id 2 fe
    | Pexp_ident _ -> root_target id 2 fe
    | Pexp_apply (h, hargs) ->
      List.iter (fun (_, a) -> scan a) hargs;
      root_target id 2 h
    | _ -> ()
  and root_of_closure id mult clos =
    Hashtbl.replace ctx.parents id name;
    add_root { r_id = id; r_mult = mult; r_target = Rbody id };
    ctx.pending <-
      { p_id = id; p_mult = mult; p_expr = clos; p_env = env; p_file = file;
        p_localmuts = !localmuts }
      :: ctx.pending
  and spawn_site e args =
    mark_concurrent ();
    List.iter
      (fun (l, a) -> if l <> Asttypes.Nolabel then scan a)
      args;
    match List.rev (Flow.nolabel_args args) with
    | clos :: before_rev -> (
      List.iter scan (List.rev before_rev);
      let line = line_of e.pexp_loc in
      let id = Printf.sprintf "spawn:%s:%d" (Filename.basename file) line in
      let mult = spawn_mult () in
      match (Flow.strip clos).pexp_desc with
      | Pexp_fun _ | Pexp_function _ -> root_of_closure id mult clos
      | Pexp_ident _ -> root_target id mult clos
      | Pexp_apply (h, hargs) ->
        List.iter (fun (_, a) -> scan a) hargs;
        root_target id mult h
      | _ -> ())
    | [] -> ()
  and cell_access ~write ~upd id extras line =
    if not (Hashtbl.mem ctx.inv id) then
      register ctx id Cell ~role:Unknown ~cell_name:None ~file ~line;
    if upd then begin
      (* the RMW is atomic w.r.t. this cell: the access and the
         closure body hold the cell's own pseudo-token *)
      let saved = snap () in
      held := SS.add id !held;
      access id true line;
      List.iter scan extras;
      restore saved
    end
    else begin
      access id write line;
      List.iter scan extras
    end
  and cell_path_access ~write ~upd path_e extras line =
    match leaf_of_path path_e with
    | None -> List.iter scan extras
    | Some leaf -> cell_access ~write ~upd ("cell:" ^ leaf) extras line
  and call e n args =
    let line = line_of e.pexp_loc in
    match n with
    | _ when List.mem n cell_ops -> (
      match Flow.nolabel_args args with
      | path_e :: extras ->
        if n = "Sim.Cell.peek" then List.iter scan extras
          (* unmonitored by contract: reporting/debug reads *)
        else
          cell_path_access ~write:(n <> "Sim.Cell.get")
            ~upd:(n = "Sim.Cell.update") path_e extras line
      | [] -> ())
    | _ when Hashtbl.mem ctx.wrappers n -> (
      let write, spec, upd = Hashtbl.find ctx.wrappers n in
      record_call n;
      match Flow.nolabel_args args with
      | a0 :: extras -> (
        match spec with
        | `Arg -> cell_path_access ~write ~upd a0 extras line
        | `Fld fl ->
          scan a0;
          cell_access ~write ~upd ("cell:" ^ fl) extras line)
      | [] -> ())
    | _ when n = ivar_read || n = ivar_fill -> (
      List.iter (fun (_, a) -> scan a) args;
      match
        Option.bind (List.nth_opt (Flow.nolabel_args args) 0) leaf_of_path
      with
      | Some l when n = ivar_read ->
        (* happens-after the fill, permanently from here on *)
        held := SS.add ("ivar:" ^ l) !held
      | Some l -> u.u_fills <- ("ivar:" ^ l, !seq) :: u.u_fills
      | None -> ())
    | ":=" -> (
      match Flow.nolabel_args args with
      | r :: rest ->
        List.iter scan rest;
        (match loc_of_path r with
        | Some id -> access id true line
        | None -> scan r)
      | [] -> ())
    | "!" | "incr" | "decr" -> (
      match Flow.nolabel_args args with
      | [ r ] -> (
        match loc_of_path r with
        | Some id -> access id (n <> "!") line
        | None -> scan r)
      | other -> List.iter scan other)
    | _ when container_op n <> None ->
      let write = match container_op n with Some w -> w | None -> false in
      let hit = ref false in
      List.iter
        (fun a ->
          match loc_of_path a with
          | Some id when not !hit ->
            hit := true;
            access id write line
          | _ -> scan_arg a)
        (Flow.nolabel_args args);
      List.iter
        (fun (l, a) -> if l <> Asttypes.Nolabel then scan_arg a)
        args
    | _ ->
      List.iter (fun (_, a) -> scan_arg a) args;
      record_call n
  (* The must-domain reading of the lock events: a [try_acquire] may
     fail and adds no token; semaphore, ivar and cell tokens survive
     [release_all]; an unrenderable item falls back to its path. *)
  and lock n _ = function
    | Flow.Acquire { tok; item; must } ->
      record_call n;
      if must then
        Option.iter
          (fun t -> held := SS.add t !held)
          (match tok with
          | Some _ -> tok
          | None ->
            Option.map (fun p -> "lm:" ^ p) (Option.bind item Flow.render_path))
    | Release_all ->
      record_call n;
      drop_grants ()
    | Returns_released -> drop_grants ()
    | Sem_acquire tok -> Option.iter (fun t -> held := SS.add t !held) tok
    | Sem_release tok -> Option.iter (fun t -> held := SS.remove t !held) tok
    | Sem_scoped (tok, body) ->
      Option.iter (fun t -> held := SS.add t !held) tok;
      body ();
      Option.iter (fun t -> held := SS.remove t !held) tok
    | Returns_holding toks ->
      List.iter (fun t -> held := SS.add t !held) toks
  and drop_grants () =
    held := SS.filter is_sticky !held;
    released := true
  in
  scan body;
  u.u_acc <- List.rev u.u_acc;
  u.u_calls <- List.rev u.u_calls;
  u

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

let env_of_file ctx (f : Source.file) =
  (* every node of a file carries that file's environment *)
  match
    List.find_opt
      (fun (n : Callgraph.node) -> n.file = f.Source.path)
      (Callgraph.nodes_in_order ctx.graph)
  with
  | Some n -> n.env
  | None ->
    Names.make_env ~current_module:f.Source.module_name ~aliases:[]
      ~known_roots:
        (List.map
           (fun (g : Source.file) -> g.Source.module_name)
           ctx.graph.Callgraph.files)

let adj entry released =
  if released then SS.filter is_sticky entry else entry

let run graph mb (lock : Lockpass.result) =
  let ctx =
    { graph; lock; inv = Hashtbl.create 128; wrappers = Hashtbl.create 16;
      fdecls = Hashtbl.create 128; parents = Hashtbl.create 32;
      callers = Hashtbl.create 128; units = Hashtbl.create 256; roots = [];
      root_seen = SS.empty; pending = [] }
  in
  (* caller counts, for spawn multiplicity *)
  List.iter
    (fun (n : Callgraph.node) ->
      List.iter
        (fun (callee, _) ->
          Hashtbl.replace ctx.callers callee
            (1 + Option.value ~default:0 (Hashtbl.find_opt ctx.callers callee)))
        n.Callgraph.calls)
    (Callgraph.nodes_in_order graph);
  (* inventory (types first, across every file, so record literals in
     one module resolve fields declared in another) + wrappers *)
  List.iter
    (fun (f : Source.file) ->
      if not (exempt_file f.Source.path) then
        match f.Source.ast with
        | Some items -> inventory_types ctx f items
        | None -> ())
    graph.Callgraph.files;
  List.iter
    (fun (f : Source.file) ->
      if not (exempt_file f.Source.path) then
        match f.Source.ast with
        | Some items -> inventory_values ctx (env_of_file ctx f) f items
        | None -> ())
    graph.Callgraph.files;
  List.iter
    (fun (n : Callgraph.node) ->
      if not (exempt_file n.Callgraph.file) then
        match n.Callgraph.body with
        | Some body -> (
          match wrapper_of n.Callgraph.env body with
          | Some w -> Hashtbl.replace ctx.wrappers n.Callgraph.fn w
          | None -> ())
        | None -> ())
    (Callgraph.nodes_in_order graph);
  (* scan every node, then drain the root-closure worklist (roots can
     spawn further roots) *)
  List.iter
    (fun (n : Callgraph.node) ->
      if not (exempt_file n.Callgraph.file) then
        match n.Callgraph.body with
        | Some body ->
          ignore
            (scan_unit ctx ~name:n.Callgraph.fn ~file:n.Callgraph.file
               ~env:n.Callgraph.env ~is_root:false
               ~mult_hint:(callers_mult ctx n.Callgraph.fn) ~localmuts:[]
               body)
        | None -> ())
    (Callgraph.nodes_in_order graph);
  let rec drain k =
    match List.rev ctx.pending with
    | batch when batch <> [] && k < 1000 ->
      ctx.pending <- [];
      List.iter
        (fun p ->
          ignore
            (scan_unit ctx ~name:p.p_id ~file:p.p_file ~env:p.p_env
               ~is_root:true ~mult_hint:p.p_mult ~localmuts:p.p_localmuts
               p.p_expr))
        batch;
      drain (k + 1)
    | _ -> ()
  in
  drain 0;
  (* The yield gate: under the cooperative scheduler execution is
     atomic between blocking points, so a race needs a {e torn
     window} — one activation touching the location both before and
     after a call that may suspend (read / yield / write is the
     canonical lost update). A lone atomic access, however many tasks
     make it, cannot interleave mid-invariant. *)
  let exposed_locs =
    let s = ref SS.empty in
    Hashtbl.iter
      (fun _ u ->
        let blocks =
          List.filter_map
            (fun (c, _, _, cseq) ->
              if Mayblock.reasons mb c <> [] then Some cseq else None)
            u.u_calls
        in
        if blocks <> [] then begin
          let spans = Hashtbl.create 8 in
          List.iter
            (fun a ->
              let lo, hi =
                match Hashtbl.find_opt spans a.ua_loc with
                | Some (lo, hi) -> (min lo a.ua_seq, max hi a.ua_seq)
                | None -> (a.ua_seq, a.ua_seq)
              in
              Hashtbl.replace spans a.ua_loc (lo, hi))
            u.u_acc;
          Hashtbl.iter
            (fun loc (lo, hi) ->
              if List.exists (fun b -> lo < b && b < hi) blocks then
                s := SS.add loc !s)
            spans
        end)
      ctx.units;
    !s
  in
  (* ivar fill handoff: accesses made before the fill happen-before
     every read-side access *)
  Hashtbl.iter
    (fun _ u ->
      List.iter
        (fun (tok, fseq) ->
          List.iter
            (* [<=]: the fill records the current seq without bumping
               it, so an access in the same atomic window as the fill
               (scanned before it, program order) shares its seq *)
            (fun a -> if a.ua_seq <= fseq then a.ua_held <- SS.add tok a.ua_held)
            u.u_acc)
        u.u_fills)
    ctx.units;
  (* spawner continuations: only work after the first spawn (or conn
     publication) runs concurrently with anything *)
  let after_roots =
    List.sort compare
      (Hashtbl.fold
         (fun _ u acc ->
           match u.u_spawn_seq with
           | Some s when not u.u_is_root ->
             (u.u_name, s, callers_mult ctx u.u_name) :: acc
           | _ -> acc)
         ctx.units [])
  in
  (* entry locksets: meet over call sites, roots start empty *)
  let entries : (string, SS.t) Hashtbl.t = Hashtbl.create 128 in
  let meet callee abs =
    Hashtbl.mem ctx.units callee
    &&
    match Hashtbl.find_opt entries callee with
    | None ->
      Hashtbl.replace entries callee abs;
      true
    | Some cur ->
      let m = SS.inter cur abs in
      (not (SS.equal m cur))
      && begin
           Hashtbl.replace entries callee m;
           true
         end
  in
  List.iter
    (fun r ->
      match r.r_target with
      | Rcallee c -> ignore (meet c SS.empty)
      | Rbody _ -> ())
    ctx.roots;
  Flow.fixpoint
    (fun uname ->
      let u = Hashtbl.find ctx.units uname in
      let base =
        if u.u_is_root then Some SS.empty else Hashtbl.find_opt entries uname
      in
      (* the meet is order-free: each callee's entry is the
         intersection of everything met into it *)
      List.fold_left
        (fun changed (callee, h, rel, cseq) ->
          let via_entry =
            match base with
            | Some base -> meet callee (SS.union h (adj base rel))
            | None -> false
          in
          (* the spawner's continuation enters with nothing held *)
          let via_spawn =
            match u.u_spawn_seq with
            | Some s when (not u.u_is_root) && cseq >= s -> meet callee h
            | _ -> false
          in
          via_entry || via_spawn || changed)
        false u.u_calls)
    (List.sort compare (Hashtbl.fold (fun k _ a -> k :: a) ctx.units []));
  let entry_of uname =
    match Hashtbl.find_opt entries uname with
    | Some s -> s
    | None -> SS.empty
  in
  (* the units reachable from a root's start units *)
  let reach starts =
    let rec visit seen uname =
      match Hashtbl.find_opt ctx.units uname with
      | Some u when not (SS.mem uname seen) ->
        List.fold_left
          (fun seen (callee, _, _, _) -> visit seen callee)
          (SS.add uname seen) u.u_calls
      | _ -> seen
    in
    List.fold_left visit SS.empty starts
  in
  (* attribution *)
  let aggs :
      (string, (string * int) list ref * (string * string) list ref)
      Hashtbl.t =
    Hashtbl.create 64
  in
  let note_access root mult uname a locks =
    let roots, reps =
      Flow.find_or_add aggs a.ua_loc (fun () -> (ref [], ref []))
    in
    if not (List.mem_assoc root !roots) then roots := (root, mult) :: !roots;
    let file = (Hashtbl.find ctx.units uname).u_file in
    let acc =
      { a_fn = uname; a_file = file; a_line = a.ua_line; a_write = a.ua_write;
        a_locks = SS.elements locks }
    in
    (* keep one representative access per root, writes preferred *)
    let rep () =
      Printf.sprintf "%s at %s:%d %s [%s]" acc.a_fn acc.a_file acc.a_line
        (if acc.a_write then "writes" else "reads")
        (if acc.a_locks = [] then "no locks" else String.concat "," acc.a_locks)
    in
    (match List.assoc_opt root !reps with
    | None -> reps := (root, rep ()) :: !reps
    | Some _ when a.ua_write ->
      reps := (root, rep ()) :: List.remove_assoc root !reps
    | Some _ -> ());
    acc
  in
  let final_accs : (string, access list ref) Hashtbl.t = Hashtbl.create 64 in
  let count_unit root mult ~rt uname ~filter =
    match Hashtbl.find_opt ctx.units uname with
    | None -> ()
    | Some u ->
      let entry = if u.u_is_root then SS.empty else entry_of uname in
      (* A [ref:] location is one instance per activation of its
         owning function: only closures spawned inside that activation
         and the activation's own continuation share it. A root that
         merely CALLS the owner gets a fresh instance — not shared. *)
      let ref_mult loc =
        match ref_owner loc with
        | None -> Some mult
        | Some owner -> (
          match rt with
          | `After u -> if u = owner then Some 1 else None
          | `Body id -> if descends ctx id owner then Some mult else None
          | `Callee -> None)
      in
      List.iter
        (fun a ->
          match if filter a then ref_mult a.ua_loc else None with
          | None -> ()
          | Some mult ->
            let locks = SS.union a.ua_held (adj entry a.ua_released) in
            let acc = note_access root mult uname a locks in
            let l = Flow.find_or_add final_accs a.ua_loc (fun () -> ref []) in
            if
              not
                (List.exists
                   (fun x ->
                     x.a_fn = acc.a_fn && x.a_line = acc.a_line
                     && x.a_write = acc.a_write)
                   !l)
            then l := acc :: !l)
        u.u_acc
  in
  let all = fun _ -> true in
  List.iter
    (fun r ->
      let starts, own, rt =
        match r.r_target with
        | Rbody id ->
          let direct =
            match Hashtbl.find_opt ctx.units id with
            | Some u -> List.map (fun (c, _, _, _) -> c) u.u_calls
            | None -> []
          in
          (direct, Some id, `Body id)
        | Rcallee c -> ([ c ], None, `Callee)
      in
      let reached = reach starts in
      Option.iter (fun id -> count_unit r.r_id r.r_mult ~rt id ~filter:all) own;
      SS.iter
        (fun uname -> count_unit r.r_id r.r_mult ~rt uname ~filter:all)
        reached)
    (List.sort compare ctx.roots);
  List.iter
    (fun (fn, s, mult) ->
      let u = Hashtbl.find ctx.units fn in
      let post = List.filter_map
          (fun (c, _, _, cseq) -> if cseq >= s then Some c else None)
          u.u_calls
      in
      let rid = "after:" ^ fn in
      let rt = `After fn in
      count_unit rid mult ~rt fn ~filter:(fun a -> a.ua_seq >= s);
      SS.iter
        (fun uname -> count_unit rid mult ~rt uname ~filter:all)
        (reach post))
    after_roots;
  (* assemble locations + findings *)
  let loc_ids = List.sort compare (Hashtbl.fold (fun k _ a -> k :: a) aggs []) in
  let findings = ref [] in
  let locations = ref [] in
  List.iter
    (fun id ->
      let roots, reps = Hashtbl.find aggs id in
      let roots = List.sort compare !roots in
      let degree = List.fold_left (fun n (_, m) -> n + m) 0 roots in
      if degree >= 2 then begin
        let accesses =
          List.sort
            (fun a b ->
              compare (a.a_file, a.a_line, a.a_fn) (b.a_file, b.a_line, b.a_fn))
            (match Hashtbl.find_opt final_accs id with
            | Some l -> !l
            | None -> [])
        in
        let inter =
          match accesses with
          | [] -> SS.empty
          | a0 :: rest ->
            List.fold_left
              (fun acc a -> SS.inter acc (SS.of_list a.a_locks))
              (SS.of_list a0.a_locks) rest
        in
        let has_write = List.exists (fun a -> a.a_write) accesses in
        let exposed = SS.mem id exposed_locs in
        let inv =
          match Hashtbl.find_opt ctx.inv id with
          | Some i -> i
          | None ->
            { i_id = id; i_kind = Cell; i_role = Unknown; i_cell_name = None;
              i_file = (match accesses with a :: _ -> a.a_file | [] -> "");
              i_line = (match accesses with a :: _ -> a.a_line | [] -> 0) }
        in
        let loc =
          { l_id = id; l_kind = inv.i_kind; l_role = inv.i_role;
            l_cell_name = inv.i_cell_name; l_file = inv.i_file;
            l_line = inv.i_line; l_roots = roots; l_accesses = accesses;
            l_locks = SS.elements inter }
        in
        locations := loc :: !locations;
        let witness =
          List.filteri
            (fun i _ -> i < 3)
            (List.map
               (fun (root, rep) ->
                 let m = Option.value ~default:1 (List.assoc_opt root roots) in
                 Printf.sprintf "root %s (x%d): %s" root m rep)
               (List.sort compare !reps))
        in
        let emit rule msg =
          findings :=
            Finding.v ~witness ~rule ~file:inv.i_file ~line:inv.i_line
              ~slug:id msg
            :: !findings
        in
        let nroots = List.length roots in
        let racy = has_write && SS.is_empty inter && exposed in
        match inv.i_kind with
        | Cell ->
          if inv.i_role = Data && racy then
            emit "unsynchronized-cell-write"
              (Printf.sprintf
                 "Data-role cell %s%s is written from %d concurrent roots \
                  with no common lock; make the read-modify-write atomic \
                  with Sim.Cell.update, guard the accesses, or declare the \
                  cell ~role:Sync with a protocol argument"
                 id
                 (match inv.i_cell_name with
                 | Some n -> Printf.sprintf " (%S)" n
                 | None -> "")
                 nroots)
        | Global | Field ->
          if inv.i_kind = Global && has_write then
            emit "unmonitored-shared-state"
              (Printf.sprintf
                 "module-level mutable %s is written by concurrent roots but \
                  is invisible to the sanitizer; move it into a per-world \
                  Sim.Cell so every access is monitored"
                 id);
          if racy then
            emit "static-race"
              (Printf.sprintf
                 "shared location %s is reachable from %d concurrent roots \
                  (weight %d) with no common lock across its %d access \
                  sites; guard it or hand it off via an ivar"
                 id nroots degree (List.length accesses))
      end)
    loc_ids;
  { findings = Finding.sort !findings; locations = List.rev !locations }

(* ------------------------------------------------------------------ *)
(* Protection map JSON                                                 *)
(* ------------------------------------------------------------------ *)

let kind_str = function
  | Global -> "global"
  | Field -> "field"
  | Cell -> "cell"

let role_str = function Data -> "data" | Sync -> "sync" | Unknown -> "unknown"

let locations_to_json locs =
  let q s = "\"" ^ Finding.json_escape s ^ "\"" in
  "["
  ^ String.concat ","
      (List.map
         (fun l ->
           Printf.sprintf
             "{\"location\":%s,\"kind\":%s,\"role\":%s,%s\"decl\":%s,\
              \"roots\":[%s],\"locks\":[%s],\"sites\":[%s]}"
             (q l.l_id)
             (q (kind_str l.l_kind))
             (q (role_str l.l_role))
             (match l.l_cell_name with
             | Some n -> Printf.sprintf "\"cell_name\":%s," (q n)
             | None -> "")
             (q (Printf.sprintf "%s:%d" l.l_file l.l_line))
             (String.concat ","
                (List.map
                   (fun (r, m) ->
                     Printf.sprintf "{\"root\":%s,\"mult\":%d}" (q r) m)
                   l.l_roots))
             (String.concat "," (List.map q l.l_locks))
             (String.concat ","
                (List.map
                   (fun a ->
                     Printf.sprintf
                       "{\"fn\":%s,\"file\":%s,\"line\":%d,\"write\":%b,\
                        \"locks\":[%s]}"
                       (q a.a_fn) (q a.a_file) a.a_line a.a_write
                       (String.concat "," (List.map q a.a_locks)))
                   l.l_accesses)))
         locs)
  ^ "]"
