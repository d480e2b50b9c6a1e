(* lib/store coverage: codec round-trips (bit-identical re-encode,
   Attrib vectors included), the disk store's eviction-to-budget
   invariant, corruption => clean miss, concurrent domain writers
   against one shared handle, and the write-behind front. *)

module Vec = Pipeline.Cost.Vec

(* ---------------- generators ---------------- *)

let gen_vec =
  QCheck.Gen.(
    map
      (fun (compute, l1_miss, l2_miss, bus, stall) ->
        { Vec.compute; l1_miss; l2_miss; bus; stall })
      (tup5
         (int_range (-1000) 1_000_000)
         (int_range (-1000) 1_000_000)
         (int_range (-1000) 1_000_000)
         (int_range (-1000) 1_000_000)
         (int_range (-1000) 1_000_000)))

(* full char range: the codec must be 8-bit clean, not printable-clean *)
let gen_name = QCheck.Gen.(string_size ~gen:char (int_bound 16))

let gen_row =
  QCheck.Gen.(
    map
      (fun (proc, block, count, vec) -> { Attrib.proc; block; count; vec })
      (tup4 gen_name (int_range (-1) 64) (option (int_bound 10_000)) gen_vec))

let gen_entry =
  QCheck.Gen.(
    map
      (fun (kind, bound, label, rows, overheads, total) ->
        {
          Store.Entry.kind;
          bound;
          attrib = { Attrib.label; bound; rows; overheads; total };
        })
      (tup6
         (oneofl [ "wcet"; "bcet" ])
         (int_bound 1_000_000_000)
         (oneofl [ "wcet"; "bcet"; "observed" ])
         (list_size (int_bound 20) gen_row)
         (list_size (int_bound 4) (pair gen_name gen_vec))
         gen_vec))

let arb_entry =
  QCheck.make
    ~print:(fun e -> Store.Entry.to_json e)
    gen_entry

(* ---------------- codec properties ---------------- *)

let prop_roundtrip =
  QCheck.Test.make ~name:"codec round-trip is bit-identical" ~count:200
    arb_entry (fun e ->
      let blob = Store.Entry.encode e in
      match Store.Entry.decode blob with
      | None -> QCheck.Test.fail_report "decode of fresh encode returned None"
      | Some e' ->
          Store.Entry.equal e e' && String.equal (Store.Entry.encode e') blob)

let prop_truncation_is_none =
  QCheck.Test.make ~name:"truncated blob decodes to None" ~count:100
    QCheck.(pair arb_entry (int_bound 1000))
    (fun (e, cut) ->
      let blob = Store.Entry.encode e in
      let keep = cut * (String.length blob - 1) / 1000 in
      Store.Entry.decode (String.sub blob 0 keep) = None)

let prop_trailing_garbage_is_none =
  QCheck.Test.make ~name:"trailing garbage decodes to None" ~count:100
    arb_entry (fun e ->
      Store.Entry.decode (Store.Entry.encode e ^ "\x00") = None)

let prop_decode_total =
  (* arbitrary bytes never raise — worst case is None *)
  QCheck.Test.make ~name:"decode is total on junk" ~count:200
    QCheck.(string_gen QCheck.Gen.char)
    (fun s ->
      match Store.Entry.decode s with Some _ | None -> true)

(* ---------------- disk store ---------------- *)

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Unix.unlink path with Unix.Unix_error _ -> ())

let with_root suffix f =
  let root =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "paratime-test-store-%d-%s" (Unix.getpid ()) suffix)
  in
  rm_rf root;
  Fun.protect ~finally:(fun () -> rm_rf root) (fun () -> f root)

let key_of i = Digest.to_hex (Digest.string (Printf.sprintf "key-%d" i))
let blob_of i = String.init 256 (fun j -> Char.chr ((i + (j * 7)) land 0xff))

let object_path root key =
  Filename.concat
    (Filename.concat (Filename.concat root "objects") (String.sub key 0 2))
    key

let test_disk_eviction_to_budget () =
  with_root "evict" (fun root ->
      let disk = Store.Disk.open_ ~budget_bytes:4096 root in
      for i = 0 to 63 do
        Store.Disk.put disk (key_of i) (blob_of i)
      done;
      let s = Store.Disk.stats disk in
      Alcotest.(check bool)
        "bytes within budget" true
        (s.Store.Disk.bytes <= s.Store.Disk.budget);
      Alcotest.(check bool) "evictions happened" true (s.Store.Disk.evictions > 0);
      Alcotest.(check bool) "store not emptied" true (s.Store.Disk.entries > 0);
      (* the most recent put is the last the LRU would shed *)
      Alcotest.(check (option string))
        "most recent key survives" (Some (blob_of 63))
        (Store.Disk.find disk (key_of 63)))

let test_disk_recency_protects () =
  with_root "recency" (fun root ->
      (* key 0 is touched before every put, so when the budget finally
         forces an eviction the victim must be the untouched key 1 *)
      let disk = Store.Disk.open_ ~budget_bytes:1200 root in
      Store.Disk.put disk (key_of 0) (blob_of 0);
      Store.Disk.put disk (key_of 1) (blob_of 1);
      let i = ref 2 in
      while (Store.Disk.stats disk).Store.Disk.evictions = 0 && !i < 64 do
        ignore (Store.Disk.find disk (key_of 0));
        Store.Disk.put disk (key_of !i) (blob_of !i);
        incr i
      done;
      Alcotest.(check bool)
        "an eviction happened" true
        ((Store.Disk.stats disk).Store.Disk.evictions > 0);
      Alcotest.(check (option string))
        "refreshed key survives" (Some (blob_of 0))
        (Store.Disk.find disk (key_of 0));
      Alcotest.(check (option string))
        "stale key evicted" None
        (Store.Disk.find disk (key_of 1)))

let test_disk_oversize_rejected () =
  with_root "oversize" (fun root ->
      let disk = Store.Disk.open_ ~budget_bytes:64 root in
      Store.Disk.put disk (key_of 0) (String.make 1000 'x');
      let s = Store.Disk.stats disk in
      Alcotest.(check int) "oversize counted" 1 s.Store.Disk.oversize;
      Alcotest.(check int) "nothing stored" 0 s.Store.Disk.entries;
      Alcotest.(check (option string))
        "oversize blob is a miss" None
        (Store.Disk.find disk (key_of 0)))

let test_disk_bad_key_rejected () =
  with_root "badkey" (fun root ->
      let disk = Store.Disk.open_ root in
      Alcotest.check_raises "non-hex key"
        (Invalid_argument
           "Store.Disk.put: key \"../../etc/passwd\" is not a fingerprint")
        (fun () -> Store.Disk.put disk "../../etc/passwd" "blob"))

let test_disk_truncation_clean_miss () =
  with_root "trunc" (fun root ->
      let disk = Store.Disk.open_ root in
      let key = key_of 7 in
      Store.Disk.put disk key (blob_of 7);
      Store.Disk.flush disk;
      let path = object_path root key in
      Alcotest.(check bool) "object on disk" true (Sys.file_exists path);
      let size = (Unix.stat path).Unix.st_size in
      let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
      Unix.ftruncate fd (size / 2);
      Unix.close fd;
      Alcotest.(check (option string)) "truncated => miss" None
        (Store.Disk.find disk key);
      let s = Store.Disk.stats disk in
      Alcotest.(check bool) "corrupt counted" true (s.Store.Disk.corrupt > 0);
      Alcotest.(check bool)
        "bad object deleted" false (Sys.file_exists path);
      Alcotest.(check (option string))
        "second find is a plain miss" None
        (Store.Disk.find disk key))

let test_disk_bitflip_clean_miss () =
  with_root "flip" (fun root ->
      let disk = Store.Disk.open_ root in
      let key = key_of 8 in
      Store.Disk.put disk key (blob_of 8);
      Store.Disk.flush disk;
      let path = object_path root key in
      let ic = open_in_bin path in
      let raw = really_input_string ic (in_channel_length ic) in
      close_in ic;
      (* flip one payload bit; the checksummed framing must catch it *)
      let b = Bytes.of_string raw in
      let pos = Bytes.length b / 2 in
      Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0x10));
      let oc = open_out_bin path in
      output_bytes oc b;
      close_out oc;
      Alcotest.(check (option string)) "bit-flip => miss" None
        (Store.Disk.find disk key);
      Alcotest.(check bool)
        "corrupt counted" true
        ((Store.Disk.stats disk).Store.Disk.corrupt > 0))

let test_disk_reopen () =
  with_root "reopen" (fun root ->
      let disk = Store.Disk.open_ root in
      Store.Disk.put disk (key_of 1) (blob_of 1);
      Store.Disk.put disk (key_of 2) (blob_of 2);
      Store.Disk.close disk;
      let disk = Store.Disk.open_ root in
      Alcotest.(check (option string))
        "blob 1 survives reopen" (Some (blob_of 1))
        (Store.Disk.find disk (key_of 1));
      Alcotest.(check (option string))
        "blob 2 survives reopen" (Some (blob_of 2))
        (Store.Disk.find disk (key_of 2)))

let test_disk_reopen_without_manifest () =
  with_root "noman" (fun root ->
      let disk = Store.Disk.open_ root in
      Store.Disk.put disk (key_of 3) (blob_of 3);
      Store.Disk.close disk;
      Sys.remove (Filename.concat root "MANIFEST");
      let disk = Store.Disk.open_ root in
      Alcotest.(check (option string))
        "directory scan reconciles" (Some (blob_of 3))
        (Store.Disk.find disk (key_of 3)))

let test_disk_concurrent_domains () =
  with_root "domains" (fun root ->
      let disk = Store.Disk.open_ ~budget_bytes:(16 * 1024 * 1024) root in
      let domains = 4 and per_domain = 40 in
      let writer d =
        Domain.spawn (fun () ->
            for i = 0 to per_domain - 1 do
              let n = (d * per_domain) + i in
              Store.Disk.put disk (key_of n) (blob_of n)
            done)
      in
      List.iter Domain.join (List.init domains writer);
      Store.Disk.close disk;
      (* a fresh open parses the manifest and reconciles the layout; any
         corruption from the concurrent writers would surface here *)
      let disk = Store.Disk.open_ root in
      let total = domains * per_domain in
      Alcotest.(check int)
        "every write landed" total
        (Store.Disk.stats disk).Store.Disk.entries;
      for n = 0 to total - 1 do
        if Store.Disk.find disk (key_of n) <> Some (blob_of n) then
          Alcotest.failf "blob %d missing or corrupt after reopen" n
      done)

(* ---------------- write-behind front ---------------- *)

let sample_entry i =
  {
    Store.Entry.kind = "wcet";
    bound = 1000 + i;
    attrib =
      {
        Attrib.label = "wcet";
        bound = 1000 + i;
        rows =
          [
            {
              Attrib.proc = "main";
              block = 0;
              count = Some 1;
              vec = { Vec.compute = 1000 + i; l1_miss = 0; l2_miss = 0; bus = 0; stall = 0 };
            };
          ];
        overheads = [];
        total = { Vec.compute = 1000 + i; l1_miss = 0; l2_miss = 0; bus = 0; stall = 0 };
      };
  }

let test_front_memory_only () =
  let front = Store.Front.create ~mem_capacity:4 () in
  let e = sample_entry 0 in
  Store.Front.put front (key_of 0) e;
  (match Store.Front.find front (key_of 0) with
  | Some (Store.Front.Memory, e') ->
      Alcotest.(check bool) "memory hit is equal" true (Store.Entry.equal e e')
  | _ -> Alcotest.fail "expected a memory hit");
  Store.Front.close front

let test_front_write_behind_promotes () =
  with_root "front" (fun root ->
      let disk = Store.Disk.open_ root in
      (* mem_capacity 1: the second put evicts the first from memory, so
         its next find must come back from disk — which requires the
         write-behind queue to have landed it *)
      let front = Store.Front.create ~mem_capacity:1 ~disk () in
      let e0 = sample_entry 0 and e1 = sample_entry 1 in
      Store.Front.put front (key_of 0) e0;
      Store.Front.put front (key_of 1) e1;
      Store.Front.flush front;
      (match Store.Front.find front (key_of 0) with
      | Some (Store.Front.Disk, e') ->
          Alcotest.(check bool) "disk hit decodes equal" true
            (Store.Entry.equal e0 e')
      | Some (Store.Front.Memory, _) -> Alcotest.fail "expected a disk hit"
      | None -> Alcotest.fail "write-behind never landed the blob");
      (* the disk hit promoted key 0; now it must be a memory hit *)
      (match Store.Front.find front (key_of 0) with
      | Some (Store.Front.Memory, _) -> ()
      | _ -> Alcotest.fail "disk hit was not promoted to memory");
      Store.Front.close front;
      (* puts after close degrade to memory-only, silently *)
      Store.Front.put front (key_of 2) (sample_entry 2);
      Store.Front.flush front)

let test_front_survives_restart () =
  with_root "front-restart" (fun root ->
      let e = sample_entry 42 in
      let disk = Store.Disk.open_ root in
      let front = Store.Front.create ~disk () in
      Store.Front.put front (key_of 42) e;
      Store.Front.close front;
      let disk = Store.Disk.open_ root in
      let front = Store.Front.create ~disk () in
      match Store.Front.find front (key_of 42) with
      | Some (Store.Front.Disk, e') ->
          Alcotest.(check bool) "restarted front serves equal entry" true
            (Store.Entry.equal e e');
          Store.Front.close front
      | _ -> Alcotest.fail "entry did not survive the restart")

let () =
  Alcotest.run "store"
    [
      ( "codec",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_roundtrip;
            prop_truncation_is_none;
            prop_trailing_garbage_is_none;
            prop_decode_total;
          ] );
      ( "disk",
        [
          Alcotest.test_case "eviction keeps bytes within budget" `Quick
            test_disk_eviction_to_budget;
          Alcotest.test_case "recency protects touched entries" `Quick
            test_disk_recency_protects;
          Alcotest.test_case "oversize blob rejected" `Quick
            test_disk_oversize_rejected;
          Alcotest.test_case "non-hex key rejected" `Quick
            test_disk_bad_key_rejected;
          Alcotest.test_case "truncated object is a clean miss" `Quick
            test_disk_truncation_clean_miss;
          Alcotest.test_case "bit-flipped object is a clean miss" `Quick
            test_disk_bitflip_clean_miss;
          Alcotest.test_case "entries survive reopen" `Quick test_disk_reopen;
          Alcotest.test_case "reopen without manifest rescans" `Quick
            test_disk_reopen_without_manifest;
          Alcotest.test_case "concurrent domain writers" `Quick
            test_disk_concurrent_domains;
        ] );
      ( "front",
        [
          Alcotest.test_case "memory-only front" `Quick test_front_memory_only;
          Alcotest.test_case "write-behind lands and promotes" `Quick
            test_front_write_behind_promotes;
          Alcotest.test_case "entries survive a front restart" `Quick
            test_front_survives_restart;
        ] );
    ]
