module Ns = Rhodos_naming.Name_service
module Counter = Rhodos_util.Stats.Counter

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

let sysname ?(service = "fs0") id : Ns.system_name = { service; id }

let sysname_t : Ns.system_name Alcotest.testable =
  Alcotest.testable
    (fun ppf (s : Ns.system_name) -> Format.fprintf ppf "%s:%d" s.service s.id)
    ( = )

let test_root_exists () =
  let t = Ns.create () in
  check bool "root" true (Ns.exists t "/");
  check (Alcotest.list (Alcotest.pair Alcotest.string (Alcotest.of_pp Fmt.nop)))
    "root empty" [] (Ns.list_dir t "/")

let test_mkdir_bind_resolve () =
  let t = Ns.create () in
  Ns.mkdir t "/src";
  Ns.bind t ~path:"/src/main.c" ~kind:Ns.File (sysname 1);
  check sysname_t "resolve_path" (sysname 1) (Ns.resolve_path t "/src/main.c");
  check sysname_t "resolve by path attribute" (sysname 1)
    (Ns.resolve t [ ("path", "/src/main.c"); ("type", "FILE") ]);
  check bool "exists" true (Ns.exists t "/src/main.c")

let test_mkdir_requires_parent () =
  let t = Ns.create () in
  try
    Ns.mkdir t "/a/b";
    Alcotest.fail "expected Name_not_found"
  with Ns.Name_not_found _ -> ()

let test_mkdir_p () =
  let t = Ns.create () in
  Ns.mkdir_p t "/a/b/c";
  check bool "deep path" true (Ns.exists t "/a/b/c");
  (* Idempotent. *)
  Ns.mkdir_p t "/a/b/c"

let test_duplicate_bind_rejected () =
  let t = Ns.create () in
  Ns.bind t ~path:"/f" ~kind:Ns.File (sysname 1);
  (try
     Ns.bind t ~path:"/f" ~kind:Ns.File (sysname 2);
     Alcotest.fail "expected Already_bound"
   with Ns.Already_bound _ -> ());
  try
    Ns.mkdir t "/f";
    Alcotest.fail "expected Already_bound"
  with Ns.Already_bound _ -> ()

let test_unbind () =
  let t = Ns.create () in
  Ns.bind t ~path:"/f" ~kind:Ns.File (sysname 1);
  Ns.unbind t "/f";
  check bool "gone" false (Ns.exists t "/f");
  try
    Ns.unbind t "/f";
    Alcotest.fail "expected Name_not_found"
  with Ns.Name_not_found _ -> ()

let test_rmdir () =
  let t = Ns.create () in
  Ns.mkdir t "/d";
  Ns.bind t ~path:"/d/f" ~kind:Ns.File (sysname 1);
  (try
     Ns.rmdir t "/d";
     Alcotest.fail "expected Directory_not_empty"
   with Ns.Directory_not_empty _ -> ());
  Ns.unbind t "/d/f";
  Ns.rmdir t "/d";
  check bool "removed" false (Ns.exists t "/d")

let test_list_dir_sorted () =
  let t = Ns.create () in
  Ns.mkdir t "/d";
  Ns.bind t ~path:"/d/zebra" ~kind:Ns.File (sysname 1);
  Ns.bind t ~path:"/d/tty0" ~kind:Ns.Device (sysname ~service:"dev" 2);
  Ns.mkdir t "/d/sub";
  let entries = Ns.list_dir t "/d" in
  check (Alcotest.list Alcotest.string) "sorted names" [ "sub"; "tty0"; "zebra" ]
    (List.map fst entries)

let test_rename () =
  let t = Ns.create () in
  Ns.mkdir t "/a";
  Ns.mkdir t "/b";
  Ns.bind t ~path:"/a/f" ~kind:Ns.File (sysname 9);
  Ns.rename t ~old_path:"/a/f" ~new_path:"/b/g";
  check bool "old gone" false (Ns.exists t "/a/f");
  check sysname_t "moved" (sysname 9) (Ns.resolve_path t "/b/g")

let test_device_vs_file_type_attribute () =
  let t = Ns.create () in
  Ns.bind t ~path:"/dev0" ~kind:Ns.Device (sysname ~service:"dev" 1);
  check sysname_t "tty resolves with TTY type" (sysname ~service:"dev" 1)
    (Ns.resolve t [ ("path", "/dev0"); ("type", "TTY") ]);
  try
    ignore (Ns.resolve t [ ("path", "/dev0"); ("type", "FILE") ]);
    Alcotest.fail "expected Unresolvable"
  with Ns.Unresolvable _ -> ()

let test_resolve_by_attributes_only () =
  let t = Ns.create () in
  Ns.bind t ~path:"/printer"
    ~kind:Ns.Device
    ~attributes:[ ("location", "room-3") ]
    (sysname ~service:"dev" 5);
  Ns.bind t ~path:"/scanner"
    ~kind:Ns.Device
    ~attributes:[ ("location", "room-4") ]
    (sysname ~service:"dev" 6);
  check sysname_t "unique attribute match" (sysname ~service:"dev" 5)
    (Ns.resolve t [ ("location", "room-3") ]);
  (* Ambiguous: two devices. *)
  try
    ignore (Ns.resolve t [ ("type", "TTY") ]);
    Alcotest.fail "expected Unresolvable (ambiguous)"
  with Ns.Unresolvable _ -> ()

let test_find_all () =
  let t = Ns.create () in
  Ns.mkdir t "/dev";
  Ns.bind t ~path:"/dev/tty0" ~kind:Ns.Device (sysname ~service:"dev" 1);
  Ns.bind t ~path:"/dev/tty1" ~kind:Ns.Device (sysname ~service:"dev" 2);
  Ns.bind t ~path:"/data" ~kind:Ns.File ~attributes:[ ("owner", "raj") ] (sysname 3);
  let ttys = Ns.find_all t [ ("type", "TTY") ] in
  check (Alcotest.list Alcotest.string) "all devices, sorted"
    [ "/dev/tty0"; "/dev/tty1" ] (List.map fst ttys);
  check int "owner query" 1 (List.length (Ns.find_all t [ ("owner", "raj") ]));
  check int "no match" 0 (List.length (Ns.find_all t [ ("owner", "nobody") ]))

let test_attributes_and_set () =
  let t = Ns.create () in
  Ns.bind t ~path:"/f" ~kind:Ns.File ~attributes:[ ("owner", "raj") ] (sysname 1);
  check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.string))
    "attrs sorted"
    [ ("owner", "raj"); ("type", "FILE") ]
    (Ns.attributes t "/f");
  Ns.set_attribute t ~path:"/f" ~key:"owner" ~value:"andrzej";
  check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.string))
    "attr updated"
    [ ("owner", "andrzej"); ("type", "FILE") ]
    (Ns.attributes t "/f")

let test_resolve_directory_raises () =
  let t = Ns.create () in
  Ns.mkdir t "/d";
  try
    ignore (Ns.resolve_path t "/d");
    Alcotest.fail "expected Is_a_directory"
  with Ns.Is_a_directory _ -> ()

let test_relative_path_rejected () =
  let t = Ns.create () in
  try
    ignore (Ns.exists t "no-slash");
    Alcotest.fail "expected Invalid_argument"
  with Invalid_argument _ -> ()

let test_cache_hits_and_invalidation () =
  let t = Ns.create () in
  let cache = Ns.Cache.create ~capacity:8 in
  Ns.bind t ~path:"/f" ~kind:Ns.File (sysname 1);
  let aname = [ ("path", "/f") ] in
  check sysname_t "first resolve" (sysname 1) (Ns.Cache.resolve cache t aname);
  check sysname_t "second resolve" (sysname 1) (Ns.Cache.resolve cache t aname);
  let s = Ns.Cache.stats cache in
  check int "one miss" 1 (Counter.get s "misses");
  check int "one hit" 1 (Counter.get s "hits");
  (* Attribute order must not defeat the cache. *)
  Ns.set_attribute t ~path:"/f" ~key:"x" ~value:"y";
  let reordered = [ ("x", "y"); ("path", "/f") ] in
  let reordered2 = [ ("path", "/f"); ("x", "y") ] in
  ignore (Ns.Cache.resolve cache t reordered) (* new key: miss *);
  ignore (Ns.Cache.resolve cache t reordered2) (* same key normalised: hit *);
  check int "normalised key hits" 1 (Counter.get s "hits" - 1);
  check int "normalised key misses" 2 (Counter.get s "misses");
  (* Stale entries can be invalidated. *)
  Ns.unbind t "/f";
  Ns.Cache.invalidate cache aname;
  try
    ignore (Ns.Cache.resolve cache t aname);
    Alcotest.fail "expected Name_not_found"
  with Ns.Name_not_found _ -> ()

let test_cache_capacity_bounded () =
  let t = Ns.create () in
  let cache = Ns.Cache.create ~capacity:2 in
  for i = 1 to 5 do
    let path = Printf.sprintf "/f%d" i in
    Ns.bind t ~path ~kind:Ns.File (sysname i);
    ignore (Ns.Cache.resolve cache t [ ("path", path) ])
  done;
  (* All resolutions still correct even after evictions. *)
  for i = 1 to 5 do
    let path = Printf.sprintf "/f%d" i in
    check sysname_t "correct" (sysname i) (Ns.Cache.resolve cache t [ ("path", path) ])
  done

(* Fill the cache, touch the oldest name, resolve one more: the
   second-oldest name is the one evicted. *)
let test_cache_evicts_lru () =
  let t = Ns.create () in
  let cache = Ns.Cache.create ~capacity:2 in
  let resolve i =
    let path = Printf.sprintf "/f%d" i in
    if not (Ns.exists t path) then Ns.bind t ~path ~kind:Ns.File (sysname i);
    ignore (Ns.Cache.resolve cache t [ ("path", path) ])
  in
  List.iter resolve [ 1; 2; 1; 3 ];
  let misses () = Counter.get (Ns.Cache.stats cache) "misses" in
  let m0 = misses () in
  resolve 1;
  check int "touched name kept" m0 (misses ());
  resolve 2;
  check int "second-oldest evicted" (m0 + 1) (misses ())

let deep_tree_prop =
  QCheck.Test.make ~name:"bind/resolve roundtrip at any depth" ~count:100
    QCheck.(pair (int_range 1 6) (int_range 0 1000))
    (fun (depth, id) ->
      let t = Ns.create () in
      let dirs =
        List.init depth (fun i -> Printf.sprintf "d%d" i)
        |> List.fold_left (fun acc d -> acc ^ "/" ^ d) ""
      in
      if depth > 0 then Ns.mkdir_p t dirs;
      let path = (if depth = 0 then "" else dirs) ^ "/leaf" in
      Ns.bind t ~path ~kind:Ns.File (sysname id);
      Ns.resolve_path t path = sysname id)

let () =
  Alcotest.run "rhodos_naming"
    [
      ( "tree",
        [
          Alcotest.test_case "root" `Quick test_root_exists;
          Alcotest.test_case "mkdir/bind/resolve" `Quick test_mkdir_bind_resolve;
          Alcotest.test_case "mkdir requires parent" `Quick test_mkdir_requires_parent;
          Alcotest.test_case "mkdir_p" `Quick test_mkdir_p;
          Alcotest.test_case "duplicate bind" `Quick test_duplicate_bind_rejected;
          Alcotest.test_case "unbind" `Quick test_unbind;
          Alcotest.test_case "rmdir" `Quick test_rmdir;
          Alcotest.test_case "list sorted" `Quick test_list_dir_sorted;
          Alcotest.test_case "rename" `Quick test_rename;
          QCheck_alcotest.to_alcotest deep_tree_prop;
        ] );
      ( "attributed names",
        [
          Alcotest.test_case "device vs file" `Quick test_device_vs_file_type_attribute;
          Alcotest.test_case "attributes only" `Quick test_resolve_by_attributes_only;
          Alcotest.test_case "find_all" `Quick test_find_all;
          Alcotest.test_case "attributes get/set" `Quick test_attributes_and_set;
          Alcotest.test_case "directory raises" `Quick test_resolve_directory_raises;
          Alcotest.test_case "relative rejected" `Quick test_relative_path_rejected;
        ] );
      ( "cache",
        [
          Alcotest.test_case "hits and invalidation" `Quick
            test_cache_hits_and_invalidation;
          Alcotest.test_case "capacity bounded" `Quick test_cache_capacity_bounded;
          Alcotest.test_case "evicts lru" `Quick test_cache_evicts_lru;
        ] );
    ]
