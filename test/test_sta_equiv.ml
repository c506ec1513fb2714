(* Differential suite for the compiled STA arena (DESIGN.md section 14).

   The production engine propagates arrival tags into the one tag
   store ([Tag.Store]) over the CSR timing arena; the pre-refactor
   one-Hashtbl-per-pin engine is kept as [Sta.propagate_reference].
   This suite pins the byte-level contract of the refactor:

   - store and reference propagation produce identical tag sets,
     arrivals and endpoint slacks on every workload;
   - STA's tags, without their arrivals, are the relationship engine's
     tags at every pin, in the same order;
   - data tags do not pass a gated register clock pin, in STA, the
     reference engine, the relation sweep and the data clock masks;
   - a tag store reused for other propagations holds the tags of a
     fresh one at every pin;
   - on presets B-F and tiny, each mode as given and with every clock
     propagated, every endpoint's setup, hold and capture period and
     the check count at the three standard corners equal pinned
     digests, as do each merged mode's tag count and every endpoint's
     setup and hold slack on presets A-F;
   - on presets A-F and tiny, every array and list of the compiled
     arena equals a pinned digest, and its clock-pin bytes mark exactly
     the register clock pins;
   - on presets A-F, with ideal and with propagated clocks, analysing a
     context taken from a context cache gives the report of an
     analysis that builds its own context;
   - the merge pipeline's audit JSON and merged SDC are byte-identical
     at jobs=1 and jobs=4;
   - the pin-indexed, memoising exception matcher hands out the
     progress vectors and matched exception lists of the scanning one
     ([Excmatch_scan]) on generated and fault-injected modes with random
     -from/-through/-to pins, instances and clocks and -rise/-fall
     restrictions, on a second pass through its memos and from two
     domains at once;
   - incremental endpoint-relation re-propagation (the refinement-loop
     cache) equals a from-scratch recompute on randomized
     growing-exception families, and its dirty set holds every endpoint
     whose relations an append changed;
   - the refinement compare cache (side sets, incremental pass 1 and
     its per-endpoint judgements, pass-2 memo) equals a cold comparison
     on the same families, whose pass-1 buckets match the relation
     lists they are read from, and on
     presets A-F refinement's final comparison and each group's
     equivalence verdict equal a from-scratch [Compare.run] /
     [Equiv.check];
   - cones walked into a reused mark buffer (backward from endpoints,
     forward from startpoints, and pass 3's forward-within-backward
     intersection) hold the dense reference's pins in its order, on
     presets A-F and on random designs;
   - change-driven constant propagation equals the dense sweep
     (values, arc enablement, pin disables) on random designs with
     cases, disables and tie cells, on cased pins across a cycle
     break, and when two domains race to compute one baseline;
   - a context built on a context cache's layer store equals a fresh
     one in every pin value, pin activity, arc enablement and clock
     mask, for every mode of presets A-F, every mock-merged pair of
     presets A and C and random generated suites; a merge run on each
     preset builds a pinned number of layers at jobs 1 and 2;
   - the mergeability conflict keys give the conflicts of the
     rename-and-scan reference ([Conflicts_ref]), string for string, on
     every pair of presets A-F and on random families (generated,
     fuzz-corrupted and paper-circuit modes), at tolerances 0, the
     default and 0.5;
   - the [sta.propagate] chaos site fires.

   Runs on the default `dune runtest` gate via the @sta-equiv alias. *)

module Design = Mm_netlist.Design
module Mode = Mm_sdc.Mode
module Context = Mm_timing.Context
module Ctx_cache = Mm_timing.Ctx_cache
module Tgraph = Mm_timing.Tgraph
module Clock_prop = Mm_timing.Clock_prop
module Sta = Mm_timing.Sta
module Tag = Mm_timing.Tag
module Relation_prop = Mm_core.Relation_prop
module Merge_flow = Mm_core.Merge_flow
module Audit = Mm_core.Audit
module Pc = Mm_workload.Paper_circuit
module Presets = Mm_workload.Presets
module Chaos = Mm_util.Chaos
module Metrics = Mm_util.Metrics

let check = Alcotest.check
let tc name f = Alcotest.test_case name `Quick f

(* A register clocked through an AND gate whose other input is data
   launched by a virtual clock: [en] reaches [r1/CP] along data arcs,
   but only [r1/CP]'s own clock [c] may launch at [r1/Q]. *)
let gated () =
  let d =
    Mm_netlist.Netlist_io.of_string
      "design gated
       port in clk
port in en
port in d
port out o
       inst g AND2
inst r0 DFF
inst r1 DFF
       net nclk clk g/A r0/CP
net nen en g/B
net gz g/Z r1/CP
       net nd d r0/D r1/D
net no r1/Q o
"
  in
  let r =
    Mm_sdc.Resolve.mode_of_string d ~name:"gated"
      "create_clock -name c -period 10 [get_ports clk]
       create_clock -name v -period 10
       set_input_delay 1 -clock v [get_ports en]
       set_input_delay 1 -clock c [get_ports d]
       set_output_delay 1 -clock c [get_ports o]
"
  in
  d, r.Mm_sdc.Resolve.mode

(* The workloads every differential case sweeps: the paper circuit
   under its worked constraint sets, the tiny generated preset and the
   gated register clock — ports, registers, muxed and gated clocks,
   exceptions and case analysis are all represented. *)
let workloads () =
  let d = Pc.build () in
  let a6, b6 = Pc.constraint_set6 d in
  let a5, b5 = Pc.constraint_set5 d in
  let tiny_design, _info, tiny_modes = Presets.build Presets.tiny in
  let gated_design, gated_mode = gated () in
  List.map (fun m -> "paper:" ^ m.Mode.mode_name, d, m)
    [ Pc.constraint_set1 d; a5; b5; a6; b6 ]
  @ List.map
      (fun m -> "tiny:" ^ m.Mode.mode_name, tiny_design, m)
      tiny_modes
  @ [ "gated", gated_design, gated_mode ]

(* Reference tags at a pin as a sorted (key, amin, amax) list. *)
let reference_tags maps pin =
  Hashtbl.fold (fun k (amin, amax) acc -> (k, amin, amax) :: acc) maps.(pin) []
  |> List.sort compare

let slab_tags_sorted slab pin = List.sort compare (Tag.Store.tags slab pin)

(* ------------------------------------------------------------------ *)
(* Slab engine vs reference engine                                     *)

let fmt_tag (k, amin, amax) =
  Printf.sprintf "key=%d (clk=%d st=%d) amin=%h amax=%h" k (Tag.clock k)
    (Tag.state k) amin amax

let propagation_matches (label, design, mode) =
  let v = Sta.view (Context.create design mode) in
  let slab, _ = Sta.propagate v in
  let maps, ref_tags = Sta.propagate_reference v in
  let n = Design.n_pins design in
  let total = ref 0 in
  for pin = 0 to n - 1 do
    let s = slab_tags_sorted slab pin in
    let r = reference_tags maps pin in
    total := !total + List.length s;
    if s <> r then
      Alcotest.failf "%s: tags diverge at %s\n  slab: %s\n  ref:  %s" label
        (Design.pin_name design pin)
        (String.concat "; " (List.map fmt_tag s))
        (String.concat "; " (List.map fmt_tag r))
  done;
  check Alcotest.int
    (label ^ ": tag instance count")
    ref_tags (Tag.Store.length slab);
  check Alcotest.int (label ^ ": slab holds every tag") !total ref_tags

let slacks_match (label, design, mode) =
  let v = Sta.view (Context.create design mode) in
  let slab, _ = Sta.propagate v in
  let maps, _ = Sta.propagate_reference v in
  let via_slab = Sta.slacks_with v (Tag.Store.iter slab) in
  let via_ref =
    Sta.slacks_with v (fun pin f ->
        List.iter (fun (k, amin, amax) -> f k amin amax) (reference_tags maps pin))
  in
  if via_slab <> via_ref then
    Alcotest.failf "%s: endpoint slacks diverge between slab and reference"
      label;
  (* And the public entry point agrees with the oracle's slacks. *)
  let report = Sta.analyze_view v in
  if report.Sta.rep_slacks <> via_ref then
    Alcotest.failf "%s: Sta.analyze slacks diverge from the reference engine"
      label

(* STA arrival tags without their times are exactly the relationship
   engine's tags, in the same order: same launches, seeds, arc step and
   store. *)
let relation_tags_match (label, design, mode) =
  let ctx = Context.create design mode in
  let slab, _ = Sta.propagate (Sta.view ctx) in
  let ts = Relation_prop.propagate ctx ~seeds:(Tag.all_launches ctx) () in
  let triple (k, _, _) = Tag.clock k, Tag.state k, Tag.edge k in
  let fmt (c, st, e) =
    Printf.sprintf "(clk=%d st=%d %s)" c st
      (match e with
      | Mode.Any_edge -> "any"
      | Mode.Rise_edge -> "rise"
      | Mode.Fall_edge -> "fall")
  in
  for pin = 0 to Design.n_pins design - 1 do
    let s = List.map triple (Tag.Store.tags slab pin) in
    let r = List.map triple (Tag.Store.tags ts pin) in
    if s <> r then
      Alcotest.failf "%s: STA and relation tags diverge at %s\n  sta: %s\n  rel: %s"
        label (Design.pin_name design pin)
        (String.concat "; " (List.map fmt s))
        (String.concat "; " (List.map fmt r))
  done

(* Data tags that reach a register clock pin along data arcs stop
   there: the relation sweep, STA, the reference engine and the data
   clock masks all launch at [r1/Q] from [c] alone. *)
let gated_clock_pin () =
  let design, mode = gated () in
  let ctx = Context.create design mode in
  let pin = Design.pin_of_name_exn design in
  let o = pin "o" in
  check
    Alcotest.(list (pair string string))
    "relationships at o" [ "c", "c" ]
    (List.concat_map
       (fun (ep, rels) ->
         if ep = o then
           List.map (fun r -> r.Mm_core.Relation.launch, r.Mm_core.Relation.capture) rels
         else [])
       (Relation_prop.endpoint_relations ctx));
  let v = Sta.view ctx in
  let st, _ = Sta.propagate v in
  let _, ref_tags = Sta.propagate_reference v in
  check Alcotest.int "STA tags" 13 (Tag.Store.length st);
  check Alcotest.int "reference tags" 13 ref_tags;
  (match Sta.worst_paths ~ctx ~n:1 design mode with
  | [ p ] ->
    check Alcotest.string "worst path at o starts at r1/CP" "r1/CP"
      (Design.pin_name design (List.hd p.Sta.pth_steps).Sta.st_pin);
    check Alcotest.string "its slack" "8.877"
      (Printf.sprintf "%.3f" p.Sta.pth_slack)
  | _ -> Alcotest.fail "one worst path");
  let masks = Relation_prop.data_clock_masks ctx in
  let c = Option.get (Clock_prop.clock_index ctx.Context.clocks "c") in
  List.iter
    (fun name ->
      check Alcotest.int ("data clocks at " ^ name) (1 lsl c) masks.(pin name))
    [ "r1/CP"; "r1/Q"; "o" ]

let engine_cases =
  [
    tc "slab tags equal reference tags on every workload" (fun () ->
        List.iter propagation_matches (workloads ()));
    tc "slab slacks equal reference slacks on every workload" (fun () ->
        List.iter slacks_match (workloads ()));
    tc "STA tags equal relation tags on every workload" (fun () ->
        List.iter relation_tags_match (workloads ()));
    tc "tag key packing round-trips" (fun () ->
        List.iter
          (fun (clock, state, edge) ->
            let k = Tag.make ~edge clock state in
            check Alcotest.int "clock" clock (Tag.clock k);
            check Alcotest.int "state" state (Tag.state k);
            if Tag.edge k <> edge then Alcotest.fail "edge")
          [
            -1, 0, Mode.Any_edge; 0, 0, Mode.Rise_edge; 5, 3, Mode.Fall_edge;
            126, 7, Mode.Any_edge; 42, 1, Mode.Rise_edge;
          ]);
    tc "data tags do not pass a gated register clock pin" gated_clock_pin;
  ]

(* ------------------------------------------------------------------ *)
(* Context handoff: a context taken from the merge flow's cache carries
   no delays; STA derives them, so analysing it must give the report of
   an analysis that builds its own context.                            *)

let report_fields (r : Sta.report) =
  r.Sta.rep_mode, r.Sta.rep_slacks, r.Sta.rep_drc, r.Sta.rep_n_tags,
  r.Sta.rep_n_checked

(* Each mode as given and with every clock propagated (under another
   name: the cache is keyed by mode name). *)
let with_propagated (m : Mode.t) =
  let attrs =
    List.map
      (fun (c : Mode.clock) ->
        c.Mode.clk_name,
        { (Mode.attr_of_clock m c.Mode.clk_name) with Mode.propagated = true })
      m.Mode.clocks
  in
  [ m; { m with Mode.mode_name = m.Mode.mode_name ^ "+propagated"; attrs } ]

let handoff_matches (p : Presets.preset) () =
  let design, _info, modes = Presets.build p in
  let cache = Ctx_cache.create () in
  List.iter
    (fun (m : Mode.t) ->
      let handed = Sta.analyze ~ctx:(Ctx_cache.find cache m) design m
      and own = Sta.analyze design m in
      if report_fields handed <> report_fields own then
        Alcotest.failf "preset %s, %s: the cached context's report differs"
          p.Presets.pr_name m.Mode.mode_name)
    (List.concat_map with_propagated modes)

let handoff_cases =
  List.map
    (fun (p : Presets.preset) ->
      tc
        (Printf.sprintf "preset %s: a cached context analyses like a fresh one"
           p.Presets.pr_name)
        (handoff_matches p))
    Presets.all

(* ------------------------------------------------------------------ *)
(* Pinned STA results                                                  *)

(* The slab-vs-reference cases above send both engines through one check
   phase, and the CLI prints setup slacks only, so a slip in the checks
   themselves — the hold side above all — would pass them. These pin the
   exact results: per mode, the digest of every endpoint's setup, hold
   and capture period (printed with %h) and the check count at the
   typical, slow and fast corners. *)
let sta_digest design m =
  let v = Sta.view (Context.create design m) in
  let b = Buffer.create 4096 in
  let opt = function None -> "-" | Some x -> Printf.sprintf "%h" x in
  List.iter
    (fun (c : Mm_timing.Corner.t) ->
      let r = Sta.analyze_view ~corner:c v in
      Printf.bprintf b "%s %d\n" c.Mm_timing.Corner.corner_name
        r.Sta.rep_n_checked;
      List.iter
        (fun es ->
          Printf.bprintf b "%d %s %s %s\n" es.Sta.es_pin (opt es.Sta.es_setup)
            (opt es.Sta.es_hold)
            (opt es.Sta.es_capture_period))
        r.Sta.rep_slacks)
    Mm_timing.Corner.standard_set;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* (preset, [mode, digest]) as computed before the check phase became
   one routine. Every mode also runs with propagated clocks, whose
   insertion delays reach both the setup and the hold side. *)
let pinned_digests =
  [
    ( "B",
      [
        "m0_0", "154ec8eec02b18e1fdb9aec131f6152c";
        "m0_0+propagated", "e59f80ad2253a4b8728a72f998415a57";
        "m0_1", "9c6ae61c0a235b93bd534a49fdbb4ebd";
        "m0_1+propagated", "2c22a6c91c022374b98cb176c020f2c8";
        "m0_2", "1367ff8a936daafdb200a61b60cb44eb";
        "m0_2+propagated", "53e7b730db878f4be0aa8ada72db7602";
      ] );
    ( "C",
      [
        "m0_0", "cc00374adc2700c5fcb23ee65f447f0c";
        "m0_0+propagated", "d38307a0161d198d5d5d49016858e6c6";
        "m0_1", "4bf46a52750eaf4e10ca282ee13cc28e";
        "m0_1+propagated", "2166e93ef4869cab92149e782d76b243";
        "m0_2", "4aa393f554c6de7e1c49ac6295d8e2a3";
        "m0_2+propagated", "dfd232e141af6e6ff9f40f647bcad825";
        "m0_3", "ba1dcbbc5a3d06969cd547ba379632d8";
        "m0_3+propagated", "4684497a57f591ae383c0e3f259a9aa4";
        "m0_4", "5ac9a4c813ac969d49e0d5f7b29b1146";
        "m0_4+propagated", "d809069c1dd34ab647cb36af9e6a0581";
        "m0_5", "cd6aa4ff708b2d634117a4971bb5c227";
        "m0_5+propagated", "27eb3bd06ac7e962a5b2adf09e7633a9";
        "m0_6", "62bd7c829dade46bfc38e10c312baa90";
        "m0_6+propagated", "317f94c77c77cc4172b54df9c69a0ca0";
        "m0_7", "f0507251d28d851942d2fcd08eb33d16";
        "m0_7+propagated", "28bca0b79b1b07156b042c940d4d51c6";
        "m0_8", "199b23281208cd26aeb5ec703910aa36";
        "m0_8+propagated", "5bb1ce4c0b8b799f29ac7de0f9103c03";
        "m0_9", "c56cc7b7d46f884ed594b34c225d8e91";
        "m0_9+propagated", "1be63f455dce7091e7807999ae9d7137";
        "m0_10", "c561868758a8ac1df5dd102fbb0ae071";
        "m0_10+propagated", "fc6dd9be728ec6885672b8d1084b72c5";
        "m0_11", "3743bc9154c55bbefe446bf537049521";
        "m0_11+propagated", "2621a9053c0fe439d0e87549bdf08374";
      ] );
    ( "D",
      [
        "m0_0", "c44c7cde76846c9a2ee5afed0fc8797d";
        "m0_0+propagated", "bac8e6d594efe76d2a734d2be52ff49f";
        "m0_1", "175124a16322566bcb852d716b201d5c";
        "m0_1+propagated", "8b2ecc4524d1790ec672e12194eb58f4";
        "m0_2", "fef20b5ff35fc8ae5a6e48ad1732684d";
        "m0_2+propagated", "5d222240f1937a47ae5db98631d246a6";
      ] );
    ( "E",
      [
        "m0_0", "6a62bea998719c58d46d2aab5a618a70";
        "m0_0+propagated", "f80aa374a2e086bb81580464c043a34e";
        "m0_1", "e3d166e7c880cd904bd00a2a7481cb0a";
        "m0_1+propagated", "f70c8801871548baa671df8044616be9";
        "m0_2", "2adbda0485486bc232a43529bb9a5b9d";
        "m0_2+propagated", "e4289450dd5b7015c3eb34d03a19ecef";
        "m0_3", "7b51f672a1358e1ff3a51b68c0c3aac8";
        "m0_3+propagated", "deab7da2695763a875689421d7057207";
        "m0_4", "118c31ead546ba4e58b9ee81b75fb0c2";
        "m0_4+propagated", "40676d88428eb90cec09fd0cde659dfe";
      ] );
    ( "F",
      [
        "m0_0", "8b8e0b5d2b52ee93df4a55ddeb589d58";
        "m0_0+propagated", "a990c79f342b007674e38bc417d897f5";
        "m0_1", "19a6867680e703f2cf3ec1ef86e42fa5";
        "m0_1+propagated", "4fe6c27b29c45e42e80b6d5e31b861e3";
        "m1_0", "8f814958f885fc3d06ca1191fc94431f";
        "m1_0+propagated", "49269ba132f8a90113603c374e4163c3";
      ] );
    ( "tiny",
      [
        "m0_0", "74fa2d760c0da984114b7c95690d9495";
        "m0_0+propagated", "3c22d739124d245d05c5cc8e6f939f75";
        "m0_1", "9eba9abca994d48dc5c2abf8f0651792";
        "m0_1+propagated", "9bf3b1f001512c178b420c13f83c2a97";
        "m1_0", "943bf0205fc6e840c83f99a3b9458794";
        "m1_0+propagated", "1f8d8f75079dd44269d89bce7ffed79f";
        "m1_1", "943bf0205fc6e840c83f99a3b9458794";
        "m1_1+propagated", "1f8d8f75079dd44269d89bce7ffed79f";
      ] );
  ]

let pinned_matches (p : Presets.preset) () =
  let design, _info, modes = Presets.build p in
  let modes = List.concat_map with_propagated modes in
  check
    Alcotest.(list (pair string string))
    ("preset " ^ p.Presets.pr_name)
    (List.assoc p.Presets.pr_name pinned_digests)
    (List.map (fun (m : Mode.t) -> m.Mode.mode_name, sta_digest design m) modes)

(* The modes above carry at most a few exceptions; a merged mode carries
   refinement's false paths (74 on preset F's merged_0, two of them with
   -through lists). Per merged mode of a [-j 1] merge: the digest of
   {!Sta.analyze}'s tag count and every endpoint's setup and hold slack
   (printed with %h). *)
let merged_digest design m =
  let r = Sta.analyze design m in
  let b = Buffer.create 4096 in
  let opt = function None -> "-" | Some x -> Printf.sprintf "%h" x in
  Printf.bprintf b "tags %d\n" r.Sta.rep_n_tags;
  List.iter
    (fun es ->
      Printf.bprintf b "%d %s %s\n" es.Sta.es_pin (opt es.Sta.es_setup)
        (opt es.Sta.es_hold))
    r.Sta.rep_slacks;
  Digest.to_hex (Digest.string (Buffer.contents b))

let pinned_merged_digests =
  [
    ( "A",
      [
        "merged_0", "dd2c07d606e213f5dd11fb83f979a91e";
        "merged_1", "6543d990033cf92b857eee4093a33aba";
        "merged_2", "d782420a919146f9d5ca0022ba9562ce";
        "merged_3", "b8eaa6c659a9d30fc5973bb042fb1603";
        "merged_4", "5b35eb3b98c4be47a65d2c834f16b4e7";
        "merged_5", "2eb521c6260ee87c0378494e942475f7";
        "merged_6", "4039f80c13ab4a1a7ba18fe855ef6729";
        "merged_7", "40f03d91ac0cf2b77ce2f45a960177a4";
        "merged_8", "f3591cc5fd2a799e860ae3b6067216a5";
        "merged_9", "969b6e1f1677e982f7fa9d1c2be15bb2";
        "merged_10", "62486c41f118d2a26deb74692391bfaf";
        "merged_11", "2b1c43af96a29d6abc94ef7f6e77c07b";
        "merged_12", "923f898b9c37814cfc02dab4b08d783b";
        "merged_13", "9a0be5bb857695556fbe1eb48c70c620";
        "merged_14", "cf85a787917e824641fe9a4f818a839d";
        "merged_15", "af8f8fafc834211a780be1f07c379808";
      ] );
    ( "B",
      [
        "merged_0", "b8ebdd54fb88ae8b328ebea6669f29ae";
      ] );
    ( "C",
      [
        "merged_0", "d23b8e45a339cc280a9e4e8863a8f188";
      ] );
    ( "D",
      [
        "merged_0", "b267cd5a168ca8263dc4dd85640a98ce";
      ] );
    ( "E",
      [
        "merged_0", "1ea3d571229d888ecedd952e2cd3d92d";
      ] );
    ( "F",
      [
        "merged_0", "cd7bc4afed4c8a5fa2f91571af6dfb99";
        "m1_0", "011ad4b8ed401d382c82bc679842c2ab";
      ] );
  ]

let merged_matches (p : Presets.preset) () =
  let design, _info, modes = Presets.build p in
  let merged = Merge_flow.merged_modes (Merge_flow.run ~jobs:1 modes) in
  check
    Alcotest.(list (pair string string))
    ("preset " ^ p.Presets.pr_name)
    (List.assoc p.Presets.pr_name pinned_merged_digests)
    (List.map
       (fun (m : Mode.t) -> m.Mode.mode_name, merged_digest design m)
       merged)

let pinned_cases =
  List.map
    (fun (p : Presets.preset) ->
      tc
        (Printf.sprintf "preset %s: every endpoint's checks are pinned"
           p.Presets.pr_name)
        (pinned_matches p))
    (List.tl Presets.all @ [ Presets.tiny ])
  @ List.map
      (fun (p : Presets.preset) ->
        tc
          (Printf.sprintf "preset %s: every merged mode's slacks are pinned"
             p.Presets.pr_name)
          (merged_matches p))
      Presets.all

(* ------------------------------------------------------------------ *)
(* Pinned compiled arena                                               *)

(* The digest of every array and list of [Tgraph.compile]'s result,
   floats printed with %h, so a change to how the arena is built that
   moves one arc id, one row entry or one bit of a delay statics fails
   here before it reaches an STA report. *)
let arena_digest (g : Tgraph.t) =
  let b = Buffer.create 65536 in
  let ints name a =
    Printf.bprintf b "%s %d:" name (Array.length a);
    Array.iter (Printf.bprintf b " %d") a;
    Buffer.add_char b '\n'
  and floats name a =
    Printf.bprintf b "%s %d:" name (Array.length a);
    Array.iter (Printf.bprintf b " %h") a;
    Buffer.add_char b '\n'
  in
  let pins l = String.concat "," (List.map string_of_int l) in
  let edge = function
    | Mm_netlist.Lib_cell.Rising -> "r"
    | Mm_netlist.Lib_cell.Falling -> "f"
  in
  Printf.bprintf b "pins %d arcs %d\n" g.Tgraph.sk_n_pins g.Tgraph.sk_n_arcs;
  ints "src" g.Tgraph.arc_src;
  ints "dst" g.Tgraph.arc_dst;
  ints "kind"
    (Array.map
       (function Tgraph.Comb -> 0 | Tgraph.Net -> 1 | Tgraph.Launch -> 2)
       g.Tgraph.arc_kind);
  ints "inst" g.Tgraph.arc_inst;
  ints "unate"
    (Array.map
       (function
         | Tgraph.Positive -> 0 | Tgraph.Negative -> 1 | Tgraph.Non_unate -> 2)
       g.Tgraph.arc_unate);
  floats "base" g.Tgraph.arc_base;
  floats "scale" g.Tgraph.arc_scale;
  floats "caps" g.Tgraph.arc_caps;
  ints "ldm" g.Tgraph.arc_ldm;
  ints "out_row" g.Tgraph.out_row;
  ints "out_adj" g.Tgraph.out_adj;
  ints "in_row" g.Tgraph.in_row;
  ints "in_adj" g.Tgraph.in_adj;
  ints "topo" g.Tgraph.topo;
  ints "topo_pos" g.Tgraph.topo_pos;
  ints "broken" (Array.of_list g.Tgraph.broken);
  List.iter
    (function
      | Tgraph.Ep_reg e ->
        Printf.bprintf b "ep_reg %d %d %d %h %h %s\n" e.ep_data e.ep_clock
          e.ep_inst e.ep_setup e.ep_hold (edge e.ep_edge)
      | Tgraph.Ep_port { ep_pin } -> Printf.bprintf b "ep_port %d\n" ep_pin)
    g.Tgraph.sk_endpoints;
  List.iter
    (function
      | Tgraph.Sp_reg s ->
        Printf.bprintf b "sp_reg %d %d [%s] %h %s\n" s.sp_clock s.sp_inst
          (pins s.sp_outputs) s.sp_clk_to_q (edge s.sp_edge)
      | Tgraph.Sp_port { sp_pin } -> Printf.bprintf b "sp_port %d\n" sp_pin)
    g.Tgraph.sk_startpoints;
  ints "ldm_pin" g.Tgraph.ldm_pin;
  floats "ldm_pin_caps" g.Tgraph.ldm_pin_caps;
  floats "ldm_wire_cap" g.Tgraph.ldm_wire_cap;
  ints "ldm_sink_row" g.Tgraph.ldm_sink_row;
  ints "ldm_sinks" g.Tgraph.ldm_sinks;
  ints "ldm_drivers" g.Tgraph.ldm_drivers;
  Printf.bprintf b "const_base %b\n"
    (Option.is_some (Atomic.get g.Tgraph.const_base));
  Digest.to_hex (Digest.string (Buffer.contents b))

(* [clock_pins] marks exactly the clock pins of registers with outputs:
   the sources of launch arcs. It came after the digests below were
   taken, so it is checked on its own. *)
let clock_pins_match (g : Tgraph.t) =
  let expect = Bytes.make g.Tgraph.sk_n_pins '\000' in
  List.iter
    (function
      | Tgraph.Sp_reg { sp_clock; sp_outputs = _ :: _; _ } ->
        Bytes.set expect sp_clock '\001'
      | Tgraph.Sp_reg _ | Tgraph.Sp_port _ -> ())
    g.Tgraph.sk_startpoints;
  Bytes.equal expect g.Tgraph.clock_pins

(* Computed before the compile wrote arcs straight into the arena. *)
let pinned_arenas =
  [
    "A", "a588fc53cbd63e70ebdccd6b70f6d83a";
    "B", "500a1b86c9cd725c65f81a9cd04b3487";
    "C", "cd254c21e270b2b3c998a5147b49adeb";
    "D", "e502d8174867f7e9b225e9309096955c";
    "E", "5001f7e6117ff27d9d7d36b91aade458";
    "F", "3620bc6913995d7046e100001541a3a4";
    "tiny", "372ef71dbd06916058f238b924344f9c";
  ]

let arena_cases =
  List.map
    (fun (p : Presets.preset) ->
      tc
        (Printf.sprintf "preset %s: the compiled arena is pinned"
           p.Presets.pr_name)
        (fun () ->
          let design, _info, _modes = Presets.build p in
          let g = Tgraph.compile design in
          check Alcotest.string ("preset " ^ p.Presets.pr_name)
            (List.assoc p.Presets.pr_name pinned_arenas)
            (arena_digest g);
          check Alcotest.bool "clock pins" true (clock_pins_match g)))
    (Presets.all @ [ Presets.tiny ])

(* ------------------------------------------------------------------ *)
(* Pipeline byte-identity across job counts                            *)

let pipeline_bytes ~jobs modes =
  (* Counters feed the audit's coverage section; reset so jobs=1 and
     jobs=4 start from identical cumulative state. *)
  Metrics.reset ();
  let r = Merge_flow.run ~jobs modes in
  Audit.to_json r ^ "\n"
  ^ String.concat "\n" (List.map Mode.to_sdc (Merge_flow.merged_modes r))

let jobs_invariance_cases =
  [
    tc "paper circuit: audit + merged SDC byte-identical at jobs=1/4"
      (fun () ->
        let d = Pc.build () in
        let a, b = Pc.constraint_set6 d in
        let b1 = pipeline_bytes ~jobs:1 [ a; b ] in
        let b4 = pipeline_bytes ~jobs:4 [ a; b ] in
        check Alcotest.int "byte count" (String.length b1) (String.length b4);
        if b1 <> b4 then Alcotest.fail "bytes differ");
    tc "tiny preset: audit + merged SDC byte-identical at jobs=1/4"
      (fun () ->
        let _design, _info, modes = Presets.build Presets.tiny in
        let b1 = pipeline_bytes ~jobs:1 modes in
        let b4 = pipeline_bytes ~jobs:4 modes in
        if b1 <> b4 then Alcotest.fail "bytes differ");
  ]

(* ------------------------------------------------------------------ *)
(* Incremental endpoint relations equal from-scratch recompute         *)

(* A small generated design and one two-mode family over it; [st]
   draws the design's size. *)
let random_family ?(combo_depth = 2) st seed =
  let params =
    {
      Mm_workload.Gen_design.default_params with
      Mm_workload.Gen_design.seed = 1000 + seed;
      n_domains = 2;
      regs_per_domain = 12 + Random.State.int st 12;
      stages = 2 + Random.State.int st 2;
      combo_depth;
      n_config_pins = 2;
      n_clock_muxes = 1;
    }
  in
  let design, info = Mm_workload.Gen_design.generate params in
  let suite =
    {
      Mm_workload.Gen_modes.sp_seed = 2000 + seed;
      families = [ 2 ];
      base_period = 2.0;
      scan_family = false;
    }
  in
  design, Mm_workload.Gen_modes.generate design info suite

(* ------------------------------------------------------------------ *)
(* Cones equal the dense reference                                     *)

(* [n] rounds over one context, each with a random endpoint, a random
   startpoint and three more endpoints: the endpoint's backward cone,
   the three endpoints' joint backward cone, the startpoint's forward
   cone, and pass 3's forward cone within the backward cone (walked
   into the backward cone's own buffer, as pass 3 does) must hold
   exactly the dense reference's pins, in its topological order. Every
   round reuses the same two buffers, so a leaked mark would show. *)
let cones_match_dense ~label st (ctx : Context.t) n =
  let g = ctx.Context.graph in
  let a = Relation_prop.create_marks g and b = Relation_prop.create_marks g in
  let eps = Array.of_list (Tgraph.endpoint_pins g)
  and sps =
    Array.of_list (List.map Tgraph.startpoint_pin g.Tgraph.sk_startpoints)
  in
  let pick arr = arr.(Random.State.int st (Array.length arr)) in
  let same what dense cone =
    let expect = Cone_dense.cone_order ctx dense in
    if Relation_prop.cone_pins cone <> expect then
      Alcotest.failf "%s: %s cone differs in pins or order (%d vs %d pins)"
        label what
        (List.length (Relation_prop.cone_pins cone))
        (List.length expect);
    Array.iteri
      (fun p d ->
        if Relation_prop.in_cone cone p <> d then
          Alcotest.failf "%s: %s cone membership differs at %s" label what
            (Design.pin_name ctx.Context.design p))
      dense
  in
  for _ = 1 to n do
    let ep = pick eps and sp = pick sps in
    let more = [ pick eps; pick eps; pick eps ] in
    same "joint backward" (Cone_dense.backward_cone ctx more)
      (Relation_prop.backward_cone a ctx more);
    same "forward" (Cone_dense.forward_cone ctx [ sp ])
      (Relation_prop.forward_cone b ctx [ sp ]);
    let bwd_dense = Cone_dense.backward_cone ctx [ ep ] in
    let bwd = Relation_prop.backward_cone a ctx [ ep ] in
    same "backward" bwd_dense bwd;
    same "forward within backward"
      (Cone_dense.cone_and (Cone_dense.forward_cone ctx [ sp ]) bwd_dense)
      (Relation_prop.forward_cone a ~within:bwd ctx [ sp ])
  done

let cone_cases =
  List.map
    (fun (p : Presets.preset) ->
      tc
        (Printf.sprintf "preset %s: cones equal the dense reference"
           p.Presets.pr_name)
        (fun () ->
          let design, _info, modes = Presets.build p in
          let st = Random.State.make [| 24 |] in
          List.iter
            (fun (m : Mode.t) ->
              cones_match_dense
                ~label:(p.Presets.pr_name ^ " " ^ m.Mode.mode_name)
                st (Context.create design m) 8)
            (List.filteri (fun i _ -> i < 2) modes)))
    Presets.all
  @ [
      tc "random designs: cones equal the dense reference" (fun () ->
          QCheck2.Test.check_exn ~rand:(Random.State.make [| 24 |])
            (QCheck2.Test.make ~name:"cones equal dense" ~count:30
               QCheck2.Gen.(int_range 0 10000)
               (fun seed ->
                 let st = Random.State.make [| seed |] in
                 let design, modes = random_family ~combo_depth:4 st seed in
                 List.iter
                   (fun (m : Mode.t) ->
                     cones_match_dense
                       ~label:(Printf.sprintf "seed %d %s" seed m.Mode.mode_name)
                       st (Context.create design m) 8)
                   modes;
                 true)));
    ]

(* One random exception over [ctx]'s clocks and pins (false path or
   multicycle, on setup, hold or both) — the shapes the refinement loop
   appends and the scopes the pass-1 dirty set reads: -from a clock;
   -to an endpoint pin, the
   instance owning one, a clock, an endpoint pin and a clock, or a pin
   that is no endpoint; none, one or two -through groups, the second
   downstream of the first. *)
let pick st l = List.nth l (Random.State.int st (List.length l))

let random_exc st (ctx : Context.t) =
  let design = ctx.Context.design in
  let g = ctx.Context.graph in
  let eps = Array.of_list (Tgraph.endpoint_pins g) in
  let n_pins = Design.n_pins design in
  let clock () =
    Mode.P_clock
      (Clock_prop.clock_name ctx.Context.clocks
         (Random.State.int st (Clock_prop.n_clocks ctx.Context.clocks)))
  in
  let ep_pin () = eps.(Random.State.int st (Array.length eps)) in
  let any_pin () = Random.State.int st n_pins in
  let kind =
    if Random.State.bool st then Mode.False_path
    else
      Mode.Multicycle
        { mult = 1 + Random.State.int st 2; start = Random.State.bool st }
  in
  let from_ = if Random.State.int st 3 = 0 then None else Some [ clock () ] in
  let to_ =
    match Random.State.int st 8 with
    | 0 | 1 -> None
    | 2 | 3 -> Some [ Mode.P_pin (ep_pin ()) ]
    | 4 -> (
      match Design.pin_owner design (ep_pin ()) with
      | Design.Inst_pin (inst, _) -> Some [ Mode.P_inst inst ]
      | Design.Port_pin _ ->
        Some [ Mode.P_inst (Random.State.int st (Design.n_insts design)) ])
    | 5 -> Some [ clock () ]
    | 6 -> Some [ Mode.P_pin (ep_pin ()); clock () ]
    | _ -> (
      match
        List.filter (fun p -> not (Array.mem p eps)) (List.init n_pins Fun.id)
      with
      | [] -> None
      | others -> Some [ Mode.P_pin (pick st others) ])
  in
  let through =
    match Random.State.int st 4 with
    | 0 | 1 -> []
    | 2 -> [ [ any_pin () ] ]
    | _ ->
      let first = any_pin () in
      let downstream =
        Relation_prop.cone_pins
          (Relation_prop.forward_cone
             (Relation_prop.create_marks g)
             ctx [ first ])
      in
      [ [ first ]; [ pick st downstream ] ]
  in
  let setup, hold =
    match Random.State.int st 4 with
    | 0 -> true, false
    | 1 -> false, true
    | _ -> true, true
  in
  Mode.exc ~setup ~hold ?from_ ?to_ ~through kind

(* Endpoints whose relations an appended exception changed, and steps
   whose dirty set a -to of pins and instances alone bounded — evidence
   that the dirty-set property below is not vacuous. *)
let changed_endpoints = ref 0
let scope_pin_steps = ref 0

(* A growing-exception family over a generated design: each step
   appends one random exception, exactly the shape the refinement loop
   feeds the pass-1 cache. The incremental relations must equal a
   from-scratch recompute; every endpoint whose from-scratch relations
   changed must be among the recomputed ones; and an exception whose
   -to names only pins and instances recomputes only endpoints at
   those pins. *)
let incremental_equals_scratch seed =
  let st = Random.State.make [| seed |] in
  let design, modes = random_family st seed in
  let m0 = List.hd modes in
  let ctx0 = Context.create design m0 in
  let cache = Relation_prop.create_ep_cache () in
  let store = Tag.Store.create (Tgraph.n_pins ctx0.Context.graph) in
  let rec steps mode appended previous k =
    let scratch =
      Array.of_list
        (Relation_prop.endpoint_relations (Context.create design mode))
    in
    let ctx = Context.with_exceptions ctx0 mode in
    let cached, recomputed =
      Relation_prop.endpoint_relations_cached cache ~scratch:store ctx
        (fun tags ep ->
          Tgraph.endpoint_pin ep, Relation_prop.relations_at ctx tags ep)
    in
    (match previous, recomputed with
    | None, _ | _, None -> ()
    | Some previous, Some positions ->
      Array.iteri
        (fun i (ep, rels) ->
          if rels <> snd previous.(i) then begin
            incr changed_endpoints;
            if not (List.mem i positions) then
              QCheck2.Test.fail_reportf
                "seed %d, step %d: endpoint pin %d changed but is not in \
                 the dirty set"
                seed k ep
          end)
        scratch;
      match appended with
      | Some { Mode.exc_to = Some pts; _ }
        when List.for_all
               (function
                 | Mode.P_clock _ -> false
                 | Mode.P_pin _ | Mode.P_inst _ -> true)
               pts ->
        incr scope_pin_steps;
        let scope =
          List.concat_map
            (function
              | Mode.P_pin p -> [ p ]
              | Mode.P_inst inst -> Array.to_list (Design.inst_pins design inst)
              | Mode.P_clock _ -> [])
            pts
        in
        List.iter
          (fun i ->
            if not (List.mem (fst scratch.(i)) scope) then
              QCheck2.Test.fail_reportf
                "seed %d, step %d: a -to of pins dirtied endpoint pin %d \
                 outside its scope"
                seed k (fst scratch.(i)))
          positions
      | _ -> ());
    if scratch <> cached then
      QCheck2.Test.fail_reportf
        "seed %d, step %d: incremental endpoint relations diverge from \
         scratch recompute"
        seed k;
    k >= 4
    ||
    let exc = random_exc st ctx0 in
    steps
      { mode with Mode.exceptions = mode.Mode.exceptions @ [ exc ] }
      (Some exc) (Some scratch) (k + 1)
  in
  steps m0 None None 0

(* A store that served another mode's whole-design sweep and one of its
   cones, then propagates a cone and a whole-design sweep of this mode,
   holds at every pin the tags of a fresh store, in the same order. *)
let reused_store_starts_empty seed =
  let st = Random.State.make [| seed |] in
  let design, modes = random_family st seed in
  let ctx = Context.create design (List.hd modes)
  and other = Context.create design (List.nth modes 1) in
  let g = ctx.Context.graph in
  let marks = Relation_prop.create_marks g in
  let store = Tag.Store.create (Tgraph.n_pins g) in
  let eps = Array.of_list (Tgraph.endpoint_pins g) in
  let pick () = eps.(Random.State.int st (Array.length eps)) in
  let same what (reused : Tag.Store.t) fresh =
    if Tag.Store.length reused <> Tag.Store.length fresh then
      QCheck2.Test.fail_reportf "seed %d, %s: %d entries, fresh %d" seed what
        (Tag.Store.length reused) (Tag.Store.length fresh);
    for pin = 0 to Tgraph.n_pins g - 1 do
      if Tag.Store.tags reused pin <> Tag.Store.tags fresh pin then
        QCheck2.Test.fail_reportf "seed %d, %s: tags differ at %s" seed what
          (Design.pin_name design pin)
    done
  in
  ignore (Relation_prop.endpoint_map other ~scratch:store (fun _ _ -> ()));
  ignore
    (Relation_prop.propagate other ~seeds:(Tag.all_launches other)
       ~cone:(Relation_prop.backward_cone marks other [ pick () ])
       ~scratch:store ());
  let seeds = Tag.all_launches ctx in
  let cone = Relation_prop.backward_cone marks ctx [ pick () ] in
  same "cone"
    (Relation_prop.propagate ctx ~seeds ~cone ~scratch:store ())
    (Relation_prop.propagate ctx ~seeds ~cone ());
  same "whole design"
    (Relation_prop.propagate ctx ~seeds ~scratch:store ())
    (Relation_prop.propagate ctx ~seeds ());
  true

let reused_store_prop =
  tc "a reused tag store holds the tags of a fresh one" (fun () ->
      QCheck2.Test.check_exn ~rand:(Random.State.make [| 36 |])
        (QCheck2.Test.make ~name:"a reused tag store holds the tags of a fresh one"
           ~count:12
           QCheck2.Gen.(int_range 0 10000)
           reused_store_starts_empty))

let incremental_prop =
  tc "incremental endpoint relations equal from-scratch recompute" (fun () ->
      changed_endpoints := 0;
      scope_pin_steps := 0;
      QCheck2.Test.check_exn ~rand:(Random.State.make [| 38 |])
        (QCheck2.Test.make
           ~name:"incremental endpoint relations equal from-scratch recompute"
           ~count:12
           QCheck2.Gen.(int_range 0 10000)
           incremental_equals_scratch);
      check Alcotest.bool "some appends change relations" true
        (!changed_endpoints > 0);
      check Alcotest.bool "some appends scope -to pins only" true
        (!scope_pin_steps > 0))

(* ------------------------------------------------------------------ *)
(* The indexed exception matcher equals the scanning one               *)

module Excmatch = Mm_timing.Excmatch
module Lib_cell = Mm_netlist.Lib_cell

(* Up to [n] pins after [pin] along a random walk over its out arcs. *)
let random_walk st (g : Tgraph.t) pin n =
  let rec go pin n acc =
    let outs = ref [] in
    Tgraph.iter_out g pin (fun aid -> outs := Tgraph.arc_dst g aid :: !outs);
    match !outs with
    | [] -> List.rev acc
    | _ when n = 0 -> List.rev acc
    | outs ->
      let p = pick st outs in
      go p (n - 1) (p :: acc)
  in
  go pin n []

let random_edge st =
  match Random.State.int st 3 with
  | 0 -> Mode.Any_edge
  | 1 -> Mode.Rise_edge
  | _ -> Mode.Fall_edge

(* One random exception whose -from, -through and -to name pins,
   instances and clocks of [ctx], with random -rise/-fall restrictions:
   -from a startpoint pin, its register, a clock, or a pin and a clock;
   through groups taken in order from [walks], so tags cross them; -to
   an endpoint pin, its register, a clock, an endpoint pin and a clock,
   or a pin on a walk. *)
let random_matcher_exc st (ctx : Context.t) launches walks =
  let design = ctx.Context.design in
  let eps = Array.of_list (Tgraph.endpoint_pins ctx.Context.graph) in
  let clock () =
    Mode.P_clock
      (Clock_prop.clock_name ctx.Context.clocks
         (Random.State.int st (Clock_prop.n_clocks ctx.Context.clocks)))
  in
  let owner pin =
    match Design.pin_owner design pin with
    | Design.Inst_pin (inst, _) -> Mode.P_inst inst
    | Design.Port_pin _ -> Mode.P_pin pin
  in
  let start () = pick st (pick st launches).Tag.launch_aliases in
  let ep () = eps.(Random.State.int st (Array.length eps)) in
  let walk = pick st walks in
  let from_ =
    match Random.State.int st 5 with
    | 0 -> None
    | 1 -> Some [ clock () ]
    | 2 -> Some [ Mode.P_pin (start ()) ]
    | 3 -> Some [ owner (start ()) ]
    | _ -> Some [ Mode.P_pin (start ()); clock () ]
  in
  let through =
    match Random.State.int st 3, walk with
    | 0, _ | _, [] -> []
    | 1, _ -> [ [ pick st walk ] ]
    | _, _ ->
      let i = Random.State.int st (List.length walk) in
      let later = List.filteri (fun j _ -> j >= i) walk in
      [ [ List.nth walk i ]; [ pick st later ] ]
  in
  let to_ =
    match Random.State.int st 6 with
    | 0 -> None
    | 1 -> Some [ Mode.P_pin (ep ()) ]
    | 2 -> Some [ clock () ]
    | 3 -> Some [ owner (ep ()) ]
    | 4 -> Some [ Mode.P_pin (ep ()); clock () ]
    | _ -> (
      match walk with [] -> None | _ -> Some [ Mode.P_pin (pick st walk) ])
  in
  Mode.exc ~setup:(Random.State.bool st) ~hold:(Random.State.bool st)
    ?from_ ~from_edge:(random_edge st) ~through ?to_
    ~to_edge:(random_edge st)
    (if Random.State.bool st then Mode.False_path
     else Mode.Multicycle { mult = 2; start = false })

(* One seeded tag: its startpoint, its walk, and the endpoint queries
   made at every state along it. *)
type probe = {
  pr_start : Design.pin_id list;
  pr_clock : int option;
  pr_launch_edge : Lib_cell.edge;
  pr_data_edge : Mode.edge_sel;
  pr_walk : Design.pin_id list;
  pr_ends : (Design.pin_id list * int option * Mode.edge_sel) list;
}

let random_probes st (ctx : Context.t) launches walks n =
  let eps = Array.of_list (Tgraph.endpoint_pins ctx.Context.graph) in
  let n_clocks = Clock_prop.n_clocks ctx.Context.clocks in
  let some_clock () =
    if Random.State.int st 5 = 0 then None
    else Some (Random.State.int st n_clocks)
  in
  List.init n (fun _ ->
      let l = pick st launches in
      let walk = if Random.State.bool st then pick st walks else [] in
      let ends =
        List.init 4 (fun _ ->
            let ep = eps.(Random.State.int st (Array.length eps)) in
            let end_pins =
              match walk with
              | _ :: _ when Random.State.int st 4 = 0 -> [ pick st walk; ep ]
              | _ -> [ ep ]
            in
            end_pins, some_clock (), random_edge st)
      in
      {
        pr_start = l.Tag.launch_aliases;
        pr_clock =
          (if Random.State.int st 6 = 0 then None else Some l.Tag.launch_clock);
        pr_launch_edge =
          (if Random.State.bool st then l.Tag.launch_edge
           else if l.Tag.launch_edge = Lib_cell.Rising then Lib_cell.Falling
           else Lib_cell.Rising);
        pr_data_edge = random_edge st;
        pr_walk = l.Tag.launch_pin :: walk;
        pr_ends = ends;
      })

(* The probes through the production matcher [m] and a fresh scanning
   one: the first call whose progress vector or matched exceptions
   differ, if any. *)
let matcher_mismatch (ctx : Context.t) m probes =
  let scan =
    Excmatch_scan.prepare ctx.Context.graph ctx.Context.clocks ctx.Context.mode
  in
  let vec_of s = Excmatch.progress m s
  and scan_vec s = Excmatch_scan.progress scan s in
  let ends s s' pr =
    List.find_map
      (fun (end_pins, capture_clock, data_edge) ->
        let a = Excmatch.matches_at m s ~end_pins ~capture_clock ~data_edge ()
        and b =
          Excmatch_scan.matches_at scan s' ~end_pins ~capture_clock
            ~data_edge ()
        in
        if List.equal ( == ) a b then None
        else
          Some
            (Printf.sprintf "matches_at: %d exceptions, the scan %d"
               (List.length a) (List.length b)))
      pr.pr_ends
  in
  List.find_map
    (fun pr ->
      let s =
        Excmatch.initial_state m ~start_pins:pr.pr_start
          ~launch_clock:pr.pr_clock ~launch_edge:pr.pr_launch_edge
          ~data_edge:pr.pr_data_edge ()
      and s' =
        Excmatch_scan.initial_state scan ~start_pins:pr.pr_start
          ~launch_clock:pr.pr_clock ~launch_edge:pr.pr_launch_edge
          ~data_edge:pr.pr_data_edge ()
      in
      if vec_of s <> scan_vec s' then Some "initial_state"
      else
        let rec go s s' = function
          | [] -> None
          | pin :: rest ->
            let s = Excmatch.advance m s pin
            and s' = Excmatch_scan.advance scan s' pin in
            if vec_of s <> scan_vec s' then Some "advance"
            else (
              match ends s s' pr with
              | Some _ as found -> found
              | None -> go s s' rest)
        in
        match ends s s' pr with
        | Some _ as found -> found
        | None -> go s s' pr.pr_walk)
    probes

let random_matcher_family seed =
  let st = Random.State.make [| seed |] in
  let params =
    {
      Mm_workload.Gen_design.default_params with
      Mm_workload.Gen_design.seed = 5000 + seed;
      n_domains = 1 + Random.State.int st 2;
      regs_per_domain = 4 + Random.State.int st 8;
      stages = 1 + Random.State.int st 3;
      combo_depth = 1 + Random.State.int st 3;
      n_clock_muxes = Random.State.int st 2;
    }
  in
  let design, info = Mm_workload.Gen_design.generate params in
  let suite =
    {
      Mm_workload.Gen_modes.sp_seed = 6000 + seed;
      families = [ 2 ];
      base_period = 2.0;
      scan_family = false;
    }
  in
  let fuzzed =
    (Mm_sdc.Resolve.mode_of_string_robust design ~name:"fuzzed"
       (Mm_workload.Fuzz_inputs.corrupt_seeded ~seed
          (Mm_workload.Gen_modes.sdc_of_mode_spec info suite ~family:0
             ~index:1)))
      .Mm_sdc.Resolve.mode
  in
  st, design, Mm_workload.Gen_modes.generate design info suite @ [ fuzzed ]

(* Per mode with launches and clocks: up to eight random exceptions
   appended, then random probes through the production matcher, twice
   over (the second pass answers from its memos), and from two domains
   at once, each against its own scanning matcher. *)
let indexed_equals_scan seed =
  let st, design, modes = random_matcher_family seed in
  List.iter
    (fun (m : Mode.t) ->
      let ctx0 = Context.create design m in
      let g = ctx0.Context.graph in
      let launches = Tag.all_launches ctx0 in
      if launches <> [] && Clock_prop.n_clocks ctx0.Context.clocks > 0
      then begin
        let walks =
          List.init 6 (fun _ ->
              random_walk st g (pick st launches).Tag.launch_pin 10)
        in
        let excs =
          List.init (1 + Random.State.int st 8) (fun _ ->
              random_matcher_exc st ctx0 launches walks)
        in
        let mode = { m with Mode.exceptions = m.Mode.exceptions @ excs } in
        let ctx = Context.create design mode in
        let probes = random_probes st ctx launches walks 40 in
        let fail what =
          QCheck2.Test.fail_reportf "seed %d, mode %s (%d exceptions), %s: %s"
            seed m.Mode.mode_name
            (List.length mode.Mode.exceptions)
            what
        in
        let m = ctx.Context.excs in
        List.iter
          (fun pass ->
            Option.iter (fail pass) (matcher_mismatch ctx m probes))
          [ "first pass"; "second pass" ];
        let fresh = Context.create design mode in
        let other =
          Domain.spawn (fun () ->
              matcher_mismatch fresh fresh.Context.excs (List.rev probes))
        in
        let here = matcher_mismatch fresh fresh.Context.excs probes in
        let there = Domain.join other in
        Option.iter (fail "domain 1") here;
        Option.iter (fail "domain 2") there
      end)
    modes;
  true

let excmatch_cases =
  [
    tc "the indexed matcher equals the scanning one" (fun () ->
        QCheck2.Test.check_exn ~rand:(Random.State.make [| 38 |])
          (QCheck2.Test.make ~name:"the indexed matcher equals the scanning one"
             ~count:25
             QCheck2.Gen.(int_range 0 10000)
             indexed_equals_scan));
  ]

(* ------------------------------------------------------------------ *)
(* The refinement compare cache equals a cold comparison               *)

module Compare = Mm_core.Compare
module Equiv = Mm_core.Equiv
module Prelim = Mm_core.Prelim
module Refine = Mm_core.Refine
module Relation = Mm_core.Relation

(* The fields in which two comparisons differ, in declaration order. *)
let compare_diff (a : Compare.result) (b : Compare.result) =
  List.filter_map
    (fun (field, same) -> if same then None else Some field)
    [
      "pass1", a.Compare.pass1 = b.Compare.pass1;
      "pass2", a.Compare.pass2 = b.Compare.pass2;
      "pass3", a.Compare.pass3 = b.Compare.pass3;
      "fixes", a.Compare.fixes = b.Compare.fixes;
      "unsound", a.Compare.unsound = b.Compare.unsound;
      "pessimism", a.Compare.pessimism = b.Compare.pessimism;
      "undecided", a.Compare.undecided = b.Compare.undecided;
    ]

let equiv_diff (a : Equiv.report) (b : Equiv.report) =
  List.filter_map
    (fun (field, same) -> if same then None else Some field)
    [
      "equivalent", a.Equiv.equivalent = b.Equiv.equivalent;
      "strictly_equivalent",
      a.Equiv.strictly_equivalent = b.Equiv.strictly_equivalent;
      "mismatches", a.Equiv.mismatches = b.Equiv.mismatches;
      "remaining_fixes", a.Equiv.remaining_fixes = b.Equiv.remaining_fixes;
      "ambiguous_final", a.Equiv.ambiguous_final = b.Equiv.ambiguous_final;
      "unsound", a.Equiv.unsound = b.Equiv.unsound;
      "pessimistic", a.Equiv.pessimistic = b.Equiv.pessimistic;
    ]
  @ List.map
      (fun f -> "compare_result." ^ f)
      (compare_diff a.Equiv.compare_result b.Equiv.compare_result)

(* A random exception scoped to one endpoint's cone: -to the endpoint,
   -through a pin between one of the cone's startpoints and the
   endpoint, -from that startpoint, or both. It splits the endpoint's
   paths, so pass 1 leaves the endpoint ambiguous and passes 2 and 3
   have work. *)
let random_cone_exc st (ctx : Context.t) =
  let g = ctx.Context.graph in
  let eps = Array.of_list (Tgraph.endpoint_pins g) in
  let ep = eps.(Random.State.int st (Array.length eps)) in
  let marks = Relation_prop.create_marks g
  and fwd_marks = Relation_prop.create_marks g in
  let cone = Relation_prop.in_cone (Relation_prop.backward_cone marks ctx [ ep ]) in
  let pick l = List.nth l (Random.State.int st (List.length l)) in
  let kind =
    if Random.State.bool st then Mode.False_path
    else Mode.Multicycle { mult = 2; start = false }
  in
  match
    List.filter
      cone
      (List.map Tgraph.startpoint_pin g.Tgraph.sk_startpoints)
  with
  | [] -> Mode.exc ~to_:[ Mode.P_pin ep ] kind
  | sps ->
    let sp = pick sps in
    let fwd =
      Relation_prop.in_cone (Relation_prop.forward_cone fwd_marks ctx [ sp ])
    in
    let between =
      List.filter
        (fun p -> fwd p && cone p && p <> sp && p <> ep)
        (List.init (Tgraph.n_pins g) Fun.id)
    in
    let from_ = [ Mode.P_pin sp ] and to_ = [ Mode.P_pin ep ] in
    (match between, Random.State.int st 3 with
    | [], _ | _, 0 -> Mode.exc ~from_ ~to_ kind
    | _, 1 -> Mode.exc ~through:[ [ pick between ] ] ~to_ kind
    | _, _ -> Mode.exc ~from_ ~through:[ [ pick between ] ] ~to_ kind)

(* The pass-1 rows of one endpoint read straight off the relation
   lists: one bucket per (launch, capture, polarity) in key order,
   polarity-blind relations split into both polarities when any side
   is polarity-aware, the merged (setup, hold) pairs, and for an
   ambiguous bucket the individual pairs flattened. *)
let expected_pass1 ind_rels mrg_rels =
  let sides = mrg_rels :: ind_rels in
  let sensitive =
    List.exists
      (List.exists (fun (r : Relation.t) ->
           r.Relation.data_edge <> Mode.Any_edge))
      sides
  in
  let split (r : Relation.t) =
    if sensitive && r.Relation.data_edge = Mode.Any_edge then
      [
        { r with Relation.data_edge = Mode.Rise_edge };
        { r with Relation.data_edge = Mode.Fall_edge };
      ]
    else [ r ]
  in
  let sides = List.map (List.concat_map split) sides in
  let key (r : Relation.t) =
    r.Relation.launch, r.Relation.capture, r.Relation.data_edge
  in
  let pairs k rels =
    List.sort_uniq compare
      (List.filter_map
         (fun (r : Relation.t) ->
           if key r = k then
             Some (r.Relation.setup_state, r.Relation.hold_state)
           else None)
         rels)
  in
  List.map
    (fun k ->
      k, pairs k (List.hd sides), pairs k (List.concat (List.tl sides)))
    (List.sort_uniq compare (List.concat_map (List.map key) sides))

let pass1_matches_relations ~sides ~merged (result : Compare.result) =
  let ind_tables =
    List.map
      (fun (side : Compare.side) ->
        List.map
          (fun (ep, rels) ->
            ep, List.map (Relation.rename side.Compare.rename) rels)
          (Relation_prop.endpoint_relations side.Compare.ctx))
      sides
  in
  let expected =
    List.concat_map
      (fun (ep, mrels) ->
        let ind =
          List.map
            (fun t -> Option.value ~default:[] (List.assoc_opt ep t))
            ind_tables
        in
        List.map (fun e -> ep, e) (expected_pass1 ind mrels))
      (Relation_prop.endpoint_relations merged)
  in
  let actual =
    List.map
      (fun (r : Compare.pass1_row) ->
        let b = r.Compare.p1_bucket in
        ( r.Compare.p1_ep,
          ( (b.Compare.bk_launch, b.Compare.bk_capture, b.Compare.bk_edge),
            b.Compare.bk_mrg,
            if b.Compare.bk_verdict = Compare.Ambiguous then b.Compare.bk_ind
            else [] ) ))
      result.Compare.pass1
  in
  List.length expected = List.length actual
  && List.for_all2
       (fun (ep, (k, mrg, ind)) (ep', (k', mrg', ind')) ->
         ep = ep' && k = k' && mrg = mrg' && (ind' = [] || ind = ind'))
       expected actual

(* Steps at which the comparison reached pass 2 / pass 3 — evidence
   that the property exercises the pass-2 memo, not just pass 1. *)
let pass2_steps = ref 0
let pass3_steps = ref 0

(* The refinement loop's shape: a preliminary merge of a generated
   family, then one random exception appended per step. Every step,
   [Compare.run ~cache] over [Context.with_exceptions] must equal a
   cold [Compare.run] over a freshly built context. *)
let cached_compare_equals_cold seed =
  let st = Random.State.make [| seed |] in
  let design, modes = random_family ~combo_depth:4 st seed in
  let prelim = Prelim.merge ~name:"merged" modes in
  let sides =
    List.map
      (fun (m : Mode.t) ->
        {
          Compare.ctx = Context.create design m;
          rename = Prelim.rename_of prelim m.Mode.mode_name;
        })
      modes
  in
  let m0 = prelim.Prelim.merged in
  let ctx0 = Context.create design m0 in
  let cache = Compare.create_cache () in
  let rec steps mode k =
    let cold =
      Compare.run ~individual:sides ~merged:(Context.create design mode) ()
    in
    let cached =
      Compare.run ~cache ~individual:sides
        ~merged:(Context.with_exceptions ctx0 mode) ()
    in
    (match compare_diff cold cached with
    | [] -> ()
    | fields ->
      QCheck2.Test.fail_reportf
        "seed %d, step %d: cached compare differs from cold in %s" seed k
        (String.concat ", " fields));
    if
      not
        (pass1_matches_relations ~sides ~merged:(Context.create design mode)
           cold)
    then
      QCheck2.Test.fail_reportf
        "seed %d, step %d: pass-1 rows differ from the relation lists" seed k;
    if cold.Compare.pass2 <> [] then incr pass2_steps;
    if cold.Compare.pass3 <> [] then incr pass3_steps;
    k >= 8
    ||
    let exc =
      if Random.State.bool st then random_cone_exc st ctx0
      else random_exc st ctx0
    in
    steps { mode with Mode.exceptions = mode.Mode.exceptions @ [ exc ] } (k + 1)
  in
  steps m0 0

let compare_cache_prop =
  tc "cached compare equals cold compare on growing exception families"
    (fun () ->
      pass2_steps := 0;
      pass3_steps := 0;
      QCheck2.Test.check_exn ~rand:(Random.State.make [| 16 |])
        (QCheck2.Test.make ~name:"cached compare equals cold" ~count:20
           QCheck2.Gen.(int_range 0 10000)
           cached_compare_equals_cold);
      check Alcotest.bool "some steps reach pass 2" true (!pass2_steps > 0);
      check Alcotest.bool "some steps reach pass 3" true (!pass3_steps > 0))

(* On a preset, each merged group's verdict and refinement's final
   comparison must equal what a from-scratch check computes. *)
let final_compare_is_cold (p : Presets.preset) () =
  let design, _info, modes = Presets.build p in
  let r = Merge_flow.run ~jobs:1 modes in
  let mode_named n = List.find (fun (m : Mode.t) -> m.Mode.mode_name = n) modes in
  let checked = ref 0 in
  List.iter
    (fun (g : Merge_flow.group) ->
      match g.Merge_flow.grp_refine, g.Merge_flow.grp_equiv with
      | Some refine, Some equiv ->
        incr checked;
        let members = List.map mode_named g.Merge_flow.grp_members in
        let rename = Prelim.rename_of g.Merge_flow.grp_prelim in
        let merged = refine.Refine.refined in
        let label = merged.Mode.mode_name in
        let sides =
          List.map
            (fun (m : Mode.t) ->
              { Compare.ctx = Context.create design m; rename = rename m.Mode.mode_name })
            members
        in
        let cold =
          Compare.run ~individual:sides ~merged:(Context.create design merged) ()
        in
        (match compare_diff refine.Refine.final_compare cold with
        | [] -> ()
        | fields ->
          Alcotest.failf "%s %s: final_compare differs from a cold compare in %s"
            p.Presets.pr_name label (String.concat ", " fields));
        (match
           equiv_diff equiv (Equiv.check ~individual:members ~rename ~merged ())
         with
        | [] -> ()
        | fields ->
          Alcotest.failf "%s %s: grp_equiv differs from Equiv.check in %s"
            p.Presets.pr_name label (String.concat ", " fields))
      | _ -> ())
    r.Merge_flow.groups;
  check Alcotest.bool (p.Presets.pr_name ^ ": a merged group was checked") true
    (!checked > 0)

let compare_cache_cases =
  compare_cache_prop
  :: List.map
       (fun (p : Presets.preset) ->
         tc
           (Printf.sprintf
              "preset %s: final compare and verdict equal a cold check"
              p.Presets.pr_name)
           (final_compare_is_cold p))
       Presets.all

(* ------------------------------------------------------------------ *)
(* Change-driven constant propagation equals the dense sweep           *)

module Const_prop = Mm_timing.Const_prop
module Library = Mm_netlist.Library
module Logic = Mm_netlist.Logic

(* First disagreement between the sparse result, read through its
   accessors at every pin and every arc of [g], and the dense oracle. *)
let consts_mismatch g (sparse : Const_prop.t) (dense : Const_prop_dense.t) =
  let first name n eq show get a =
    if n <> Array.length a then
      Some (Printf.sprintf "%s: length %d vs %d" name n (Array.length a))
    else
      let rec go i =
        if i >= n then None
        else if eq (get sparse i) a.(i) then go (i + 1)
        else
          Some
            (Printf.sprintf "%s.(%d): sparse %s, dense %s" name i
               (show (get sparse i)) (show a.(i)))
      in
      go 0
  in
  let pins = Tgraph.n_pins g and arcs = Tgraph.n_arcs g in
  match
    first "values" pins ( = ) Logic.tri_to_string Const_prop.value
      dense.Const_prop_dense.values
  with
  | Some _ as m -> m
  | None -> (
    match
      first "arc_enabled" arcs Bool.equal string_of_bool Const_prop.enabled
        dense.Const_prop_dense.arc_enabled
    with
    | Some _ as m -> m
    | None ->
      first "pin_disabled" pins Bool.equal string_of_bool Const_prop.disabled
        dense.Const_prop_dense.pin_disabled)

(* Tie cells feeding fresh gates whose other input joins an existing
   driven net, each followed by an inverter: tie constants flow into
   cell functions and into arc observability. *)
let add_ties st design k =
  let driven = ref [] in
  Design.iter_nets design (fun net ->
      if Design.net_driver design net <> None then driven := net :: !driven);
  for i = 0 to k - 1 do
    let name fmt = Printf.sprintf fmt i in
    ignore
      (Design.add_inst design (name "cp_tie%d")
         (if Random.State.bool st then Library.tiehi else Library.tielo));
    ignore
      (Design.add_inst design (name "cp_g%d")
         (pick st [ Library.and2; Library.or2; Library.nand2; Library.xor2 ]));
    ignore (Design.add_inst design (name "cp_i%d") Library.inv);
    Design.wire design (name "cp_tn%d") [ name "cp_tie%d/Z"; name "cp_g%d/A" ];
    Design.attach design (pick st !driven)
      (Design.pin_of_name_exn design (name "cp_g%d/B"));
    Design.wire design (name "cp_gn%d") [ name "cp_g%d/Z"; name "cp_i%d/A" ]
  done

(* Random cases (duplicates included: the last value wins), pin
   disables and instance disables with from/to pin names that may or
   may not exist on the cell. *)
let randomize st design (m : Mode.t) =
  let n_pins = Design.n_pins design and n_insts = Design.n_insts design in
  let cases =
    List.init (Random.State.int st 12) (fun _ ->
        Random.State.int st n_pins, Random.State.bool st)
  in
  let spec inst =
    match Random.State.int st 3 with
    | 0 -> None
    | 1 -> Some "NOPE"
    | _ ->
      let pins = (Design.inst_cell design inst).Mm_netlist.Lib_cell.pins in
      Some
        pins.(Random.State.int st (Array.length pins))
          .Mm_netlist.Lib_cell.pin_name
  in
  let disables =
    List.init (Random.State.int st 6) (fun _ ->
        if Random.State.bool st then Mode.Dis_pin (Random.State.int st n_pins)
        else
          let inst = Random.State.int st n_insts in
          let from_ = spec inst in
          Mode.Dis_inst (inst, from_, spec inst))
  in
  {
    m with
    Mode.cases = m.Mode.cases @ cases;
    disables = m.Mode.disables @ disables;
  }

(* One random design: generated netlist plus tie cells; its generated
   modes, each randomized, plus one mode resolved from fault-injected
   SDC text. *)
let sparse_equals_dense seed =
  let st = Random.State.make [| seed |] in
  let params =
    {
      Mm_workload.Gen_design.default_params with
      Mm_workload.Gen_design.seed = 3000 + seed;
      n_domains = 1 + Random.State.int st 2;
      regs_per_domain = 4 + Random.State.int st 8;
      stages = 1 + Random.State.int st 3;
      combo_depth = 1 + Random.State.int st 3;
      n_config_pins = 1 + Random.State.int st 3;
      n_clock_muxes = Random.State.int st 2;
      with_scan = Random.State.bool st;
    }
  in
  let design, info = Mm_workload.Gen_design.generate params in
  add_ties st design (Random.State.int st 4);
  let suite =
    {
      Mm_workload.Gen_modes.sp_seed = 4000 + seed;
      families = [ 2; 1 ];
      base_period = 2.0;
      scan_family = params.Mm_workload.Gen_design.with_scan;
    }
  in
  let modes = Mm_workload.Gen_modes.generate design info suite in
  let fuzzed =
    (Mm_sdc.Resolve.mode_of_string_robust design ~name:"fuzzed"
       (Mm_workload.Fuzz_inputs.corrupt_seeded ~seed
          (Mm_workload.Gen_modes.sdc_of_mode_spec info suite ~family:0
             ~index:0)))
      .Mm_sdc.Resolve.mode
  in
  List.iter
    (fun (m : Mode.t) ->
      let g = Tgraph.skeleton design in
      match
        consts_mismatch g (Const_prop.run g m) (Const_prop_dense.run g m)
      with
      | None -> ()
      | Some why ->
        QCheck2.Test.fail_reportf "seed %d, mode %s: %s" seed m.Mode.mode_name
          why)
    (fuzzed :: List.concat_map (fun m -> [ m; randomize st design m ]) modes);
  true

let sparse_prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make
       ~name:"sparse constant propagation equals the dense sweep"
       ~count:30
       QCheck2.Gen.(int_range 0 10000)
       sparse_equals_dense)

(* A combinational loop a -> b -> c -> a behind an input port and gated
   by a second port. Kahn's sort cannot place the loop, so its pins are
   appended in id order and one net arc runs backwards in topological
   order: the pin reading it sees the driver's initial value. *)
let loop_design () =
  let d = Design.create "cp_loop" in
  ignore (Design.add_port d "x" Design.In);
  ignore (Design.add_port d "en" Design.In);
  ignore (Design.add_port d "y" Design.Out);
  ignore (Design.add_inst d "a" Library.and2);
  ignore (Design.add_inst d "b" Library.or2);
  ignore (Design.add_inst d "c" Library.inv);
  ignore (Design.add_inst d "t" Library.tiehi);
  Design.wire d "nx" [ "x"; "a/A" ];
  Design.wire d "nen" [ "en"; "b/B" ];
  Design.wire d "na" [ "a/Z"; "b/A" ];
  Design.wire d "nb" [ "b/Z"; "c/A"; "y" ];
  Design.wire d "nc" [ "c/Z"; "a/B" ];
  ignore (Design.add_inst d "u" Library.and2);
  Design.wire d "nt" [ "t/Z"; "u/A" ];
  Design.attach d (Design.find_net d "nb" |> Option.get)
    (Design.pin_of_name_exn d "u/B");
  d

let loop_cases () =
  let d = loop_design () in
  let empty = Mm_sdc.Resolve.mode_exn d ~name:"none" [] in
  let g = Tgraph.skeleton d in
  check Alcotest.bool "the loop is broken" true
    (g.Tgraph.broken <> []);
  let pos = g.Tgraph.topo_pos in
  (* Pins with a reader placed before them: their case value crosses a
     cycle-break back edge. *)
  let back_edge_pins = ref [] in
  Design.iter_pins d (fun p ->
      Tgraph.iter_out g p (fun aid ->
          if pos.(Tgraph.arc_dst g aid) < pos.(p) then
            back_edge_pins := p :: !back_edge_pins));
  check Alcotest.bool "some pin feeds a back edge" true
    (!back_edge_pins <> []);
  let pins = List.init (Design.n_pins d) Fun.id in
  let cases =
    List.concat_map (fun p -> [ [ p, true ]; [ p, false ] ]) pins
    @ List.concat_map
        (fun p -> List.map (fun q -> [ p, true; q, false ]) pins)
        !back_edge_pins
  in
  List.iter
    (fun cs ->
      let m = { empty with Mode.cases = cs } in
      match
        consts_mismatch g (Const_prop.run g m) (Const_prop_dense.run g m)
      with
      | None -> ()
      | Some why ->
        Alcotest.failf "cases [%s]: %s"
          (String.concat "; "
             (List.map
                (fun (p, v) ->
                  Printf.sprintf "%s=%b" (Design.pin_name d p) v)
                cs))
          why)
    cases

(* Both domains get the one published baseline, with no exception,
   when they force a cold graph at the same moment; it lists the
   loop design's tie constants and broken arcs. *)
let racing_baseline () =
  let d = loop_design () in
  let mode = Mm_sdc.Resolve.mode_exn d ~name:"none" [] in
  for _ = 1 to 20 do
    let g = Tgraph.compile d in
    let ready = Atomic.make 0 in
    let force () =
      Atomic.incr ready;
      while Atomic.get ready < 2 do Domain.cpu_relax () done;
      Const_prop.baseline g
    in
    let other = Domain.spawn force in
    let mine = force () in
    let theirs = Domain.join other in
    check Alcotest.bool "both domains return the published baseline" true
      (mine == theirs
      && Option.get (Atomic.get g.Tgraph.const_base) == mine);
    let dense =
      Const_prop_dense.run g { mode with Mode.cases = []; disables = [] }
    in
    let non_x = ref [] and off = ref [] in
    Array.iteri
      (fun p v -> if v <> Logic.X then non_x := (p, v) :: !non_x)
      dense.Const_prop_dense.values;
    Array.iteri
      (fun aid on -> if not on then off := aid :: !off)
      dense.Const_prop_dense.arc_enabled;
    check Alcotest.bool "tie constants and broken arcs are present" true
      (!non_x <> [] && !off <> []);
    check Alcotest.bool "the baseline is the all-X dense sweep" true
      (Array.to_list mine.Tgraph.cb_constants = List.rev !non_x
      && Array.to_list mine.Tgraph.cb_disabled = List.rev !off)
  done

let const_prop_cases =
  [
    sparse_prop;
    tc "cased pins on a cycle-break back edge" loop_cases;
    tc "two domains forcing one baseline" racing_baseline;
  ]

(* ------------------------------------------------------------------ *)
(* Conflict keys equal the rename-and-scan conflicts                   *)

module Conflict_key = Mm_core.Conflict_key
module Toler = Mm_util.Toler
module Resolve = Mm_sdc.Resolve
module Gen_design = Mm_workload.Gen_design
module Gen_modes = Mm_workload.Gen_modes

let tolerances =
  [ "0", Toler.exact; "default", Toler.default; "0.5", Toler.make ~rel:0.5 () ]

(* Conflicts seen per class, so the families are known to exercise
   every rule. *)
let conflict_classes =
  [
    "exception", "cannot be uniquified";
    "attribute", "clock ";
    "missing env", "missing in some modes";
    "env value", "environment constraint";
  ]

let class_counts = Hashtbl.create 4

let count_classes reasons =
  List.iter
    (fun r ->
      let cls, _ =
        List.find
          (fun (_, needle) ->
            let n = String.length needle and l = String.length r in
            let rec go i = i + n <= l && (String.sub r i n = needle || go (i + 1)) in
            go 0)
          conflict_classes
      in
      Hashtbl.replace class_counts cls
        (1 + Option.value (Hashtbl.find_opt class_counts cls) ~default:0))
    reasons

(* Under each tolerance, and with uniquification on and (when
   [both_uniquify]) off, the key compare's conflicts for every pair of
   [modes], and for [modes] as one merge when [whole], equal the
   reference's. [Some message] on the first difference. *)
let conflicts_mismatch ?(both_uniquify = false) ?(whole = false) modes =
  let cache = Ctx_cache.create () in
  let ctx_of = Ctx_cache.find cache in
  let keyed = List.map (fun m -> m, Conflict_key.of_mode m) modes in
  let rec pairs = function
    | [] -> []
    | a :: rest -> List.map (fun b -> [ a; b ]) rest @ pairs rest
  in
  let sets = pairs keyed @ if whole then [ keyed ] else [] in
  let names set =
    String.concat "+" (List.map (fun ((m : Mode.t), _) -> m.Mode.mode_name) set)
  in
  List.find_map
    (fun (tname, tolerance) ->
      List.find_map
        (fun uniquify ->
          List.find_map
            (fun set ->
              let got =
                List.map Conflict_key.reason_text
                  (Conflict_key.conflicts ~uniquify ~tolerance ~ctx_of
                     (Conflict_key.merge (List.map snd set)))
              and want =
                Conflicts_ref.conflicts ~uniquify ~tolerance ~ctx_of
                  (List.map fst set)
              in
              count_classes want;
              if got = want then None
              else
                Some
                  (Printf.sprintf
                     "%s at tolerance %s (uniquify %b):\n  keys: [%s]\n  reference: [%s]"
                     (names set) tname uniquify (String.concat "; " got)
                     (String.concat "; " want)))
            sets)
        (if both_uniquify then [ true; false ] else [ true ]))
    tolerances

let preset_conflicts_match (p : Presets.preset) () =
  let _design, _info, modes = Presets.build p in
  match conflicts_mismatch modes with
  | None -> ()
  | Some msg -> Alcotest.failf "preset %s: %s" p.Presets.pr_name msg

(* A generated family of three sub-families, as resolved and with
   roughly half the modes' SDC text corrupted by [Fuzz_inputs]:
   deleted, duplicated or mangled lines drop constraints from one mode
   only. *)
let generated_families seed =
  let st = Random.State.make [| seed |] in
  let params =
    {
      Gen_design.default_params with
      Gen_design.seed = 3000 + seed;
      n_domains = 2;
      regs_per_domain = 6 + Random.State.int st 8;
      stages = 2;
      combo_depth = 2;
      n_config_pins = 2;
      n_clock_muxes = 1;
    }
  in
  let design, info = Gen_design.generate params in
  let suite =
    {
      Gen_modes.sp_seed = 4000 + seed;
      families = [ 2; 2; 1 ];
      base_period = 2.0;
      scan_family = false;
    }
  in
  let fuzzed =
    List.concat
      (List.mapi
         (fun family size ->
           List.init size (fun index ->
               let text = Gen_modes.sdc_of_mode_spec info suite ~family ~index in
               let text =
                 if Random.State.bool st then
                   Mm_workload.Fuzz_inputs.corrupt_seeded
                     ~seed:((seed * 31) + (family * 7) + index)
                     text
                 else text
               in
               (Resolve.mode_of_string_robust design
                  ~name:(Printf.sprintf "f%d_%d" family index)
                  text)
                 .Resolve.mode))
         suite.Gen_modes.families)
  in
  [ Gen_modes.generate design info suite; fuzzed ]

(* Random modes on the paper circuit: clocks that share a source, and
   so a clock key, under different names; attribute and drive/load
   values near each other and far apart; mode-local exceptions of
   every kind, some from pins, some with an edge and some with a NaN
   delay, which equals nothing; and exceptions naming a clock that a
   later create_clock displaced, which the merged mode may give to
   another mode's clock. *)
let paper_family seed =
  let st = Random.State.make [| seed |] in
  let d = Pc.build () in
  let pick l = List.nth l (Random.State.int st (List.length l)) in
  let coin () = Random.State.bool st in
  let value base = pick [ base; base *. 1.01; base *. 1.4; base *. 3. ] in
  let mode name =
    let b = Buffer.create 512 in
    let line fmt =
      Printf.ksprintf (fun l -> Buffer.add_string b (l ^ "\n")) fmt
    in
    let c1 = pick [ "c"; "ca"; "k3" ] in
    line "create_clock -name %s -period %g [get_ports clk1]" c1 (pick [ 10.; 10.; 5. ]);
    if coin () then
      line "create_clock -name %s -period 5 [get_ports clk2]" (pick [ "c2"; "cb" ]);
    if coin () then begin
      line "create_clock -name k3 -period 4 [get_ports clk3]";
      line "set_multicycle_path 2 -from [get_clocks k3]";
      if coin () then line "create_clock -name k4 -period 4 [get_ports clk3]"
    end;
    if coin () then line "set_clock_uncertainty -setup %g [get_clocks %s]" (value 0.1) c1;
    if coin () then line "set_clock_latency -source %g [get_clocks %s]" (value 1.0) c1;
    if coin () then line "set_clock_transition %g [get_clocks %s]" (value 0.05) c1;
    if coin () then line "set_load %g [get_ports out1]" (value 0.01);
    if coin () then line "set_input_transition %g [get_ports in1]" (value 0.2);
    if coin () then line "set_case_analysis %d sel1" (Random.State.int st 2);
    if coin () then line "set_multicycle_path 2 -from [get_clocks %s] -to rX/D" c1;
    if coin () then line "set_multicycle_path 2 -from rA/CP -to rX/D";
    if coin () then line "set_max_delay %g -from rB/CP" (pick [ 3.; 4.; Float.nan ]);
    if coin () then line "set_min_delay 0.5 -rise_from rC/CP -to rZ/D";
    if coin () then line "set_multicycle_path 3 -from [get_cells rA] -through inv1/Z";
    if coin () then line "set_false_path -from rA/CP -to rY/D";
    (Resolve.mode_of_string_robust d ~name (Buffer.contents b)).Resolve.mode
  in
  List.init (2 + Random.State.int st 3) (fun i -> mode (Printf.sprintf "p%d" i))

let conflicts_prop =
  tc "conflict keys equal the reference on random families" (fun () ->
      Hashtbl.reset class_counts;
      QCheck2.Test.check_exn ~rand:(Random.State.make [| 27 |])
        (QCheck2.Test.make ~name:"conflict keys equal the reference" ~count:40
           QCheck2.Gen.(int_range 0 10000)
           (fun seed ->
             List.iter
               (fun modes ->
                 match conflicts_mismatch ~both_uniquify:true ~whole:true modes with
                 | None -> ()
                 | Some msg -> QCheck2.Test.fail_reportf "seed %d: %s" seed msg)
               (paper_family seed :: generated_families seed);
             true));
      List.iter
        (fun (cls, _) ->
          let n = Option.value (Hashtbl.find_opt class_counts cls) ~default:0 in
          check Alcotest.bool (Printf.sprintf "%s conflicts seen (%d)" cls n) true
            (n > 0))
        conflict_classes)

let conflict_cases =
  List.map
    (fun (p : Presets.preset) ->
      tc
        (Printf.sprintf "preset %s: conflict keys equal the reference on every pair"
           p.Presets.pr_name)
        (preset_conflicts_match p))
    Presets.all
  @ [ conflicts_prop ]

(* ------------------------------------------------------------------ *)
(* Chaos: the sta.propagate fault site                                 *)

let chaos_cases =
  [
    tc "sta.propagate chaos site raises when armed" (fun () ->
        let d = Pc.build () in
        let mode = Pc.constraint_set1 d in
        (match Chaos.configure "sta.propagate@1=raise" with
        | Ok () -> ()
        | Error e -> Alcotest.failf "chaos spec rejected: %s" e);
        Fun.protect ~finally:Chaos.clear (fun () ->
            (match Sta.analyze d mode with
            | _ -> Alcotest.fail "expected Chaos.Injected from sta.propagate"
            | exception Chaos.Injected site ->
              check Alcotest.string "site" "sta.propagate" site);
            (* Occurrence 1 consumed: the next analysis runs clean. *)
            ignore (Sta.analyze d mode)));
  ]

(* ------------------------------------------------------------------ *)
(* The layer store: store-built contexts equal fresh ones              *)

(* The sweep's mock merges over [modes]: every pair its conflict keys
   do not reject, merged as the sweep's stage 2 merges it, all through
   one cache, so later pairs take layers earlier ones published. Each
   merged context — the mock merge's, or one built through the store
   when clock refinement did not converge — must equal a fresh one.
   [Some message] on the first difference, and the pairs merged. *)
let mock_merges_mismatch modes =
  let cache = Ctx_cache.create () in
  let ctx_of = Ctx_cache.find cache in
  let arr = Array.of_list modes in
  let keys = Array.map Conflict_key.of_mode arr in
  let merged = ref 0 and found = ref None in
  Array.iteri
    (fun i (a : Mode.t) ->
      for j = i + 1 to Array.length arr - 1 do
        let pair = Conflict_key.merge [ keys.(i); keys.(j) ] in
        match
          !found, Conflict_key.conflicts ~tolerance:Toler.default ~ctx_of pair
        with
        | None, [] ->
          incr merged;
          let p =
            Prelim.merge ~max_refine_iters:3 ~ctx_cache:cache ~name:"__mock"
              [ a; arr.(j) ]
          in
          let stored =
            match p.Prelim.merged_ctx with
            | Some c -> c
            | None -> Ctx_cache.build cache p.Prelim.merged
          in
          found :=
            Option.map
              (Printf.sprintf "%s+%s: %s" a.Mode.mode_name
                 arr.(j).Mode.mode_name)
              (Layers_equal.mismatch stored
                 (Context.create a.Mode.design p.Prelim.merged))
        | _ -> ()
      done)
    arr;
  !found, !merged

(* Every mode's context, looked up by name and built again, through one
   cache. *)
let individual_mismatch modes =
  let cache = Ctx_cache.create () in
  match Layers_equal.first_mismatch ~stored:(Ctx_cache.find cache) modes with
  | Some _ as m -> m
  | None -> Layers_equal.first_mismatch ~stored:(Ctx_cache.build cache) modes

let fail_on = Option.iter Alcotest.fail

(* Copies of [m] that each stop every clock at one pin some clock
   reaches: they share [m]'s constant layer and differ from it and from
   each other only in a stop sense's pin. *)
let stopped_variants st (m : Mode.t) =
  let clocks = (Context.create m.Mode.design m).Context.clocks in
  let reached =
    List.filter
      (fun p -> Clock_prop.mask_at clocks p <> 0)
      (List.init (Design.n_pins m.Mode.design) Fun.id)
    |> Array.of_list
  in
  List.init (min 2 (Array.length reached)) (fun k ->
      let pin = reached.(Random.State.int st (Array.length reached)) in
      {
        m with
        Mode.mode_name = Printf.sprintf "%s_s%d" m.Mode.mode_name k;
        senses =
          m.Mode.senses
          @ [ { Mode.cs_stop = true; cs_clocks = None; cs_pins = [ pin ] } ];
      })

(* Generated suites on random designs: the generated modes, each also
   with random cases and disables, with its disables repeated in
   reverse (which must take the original's layers) and with a clock
   stopped at one of two pins; their contexts and their mock merges. *)
let store_equals_fresh seed =
  let st = Random.State.make [| seed |] in
  let params =
    {
      Gen_design.default_params with
      Gen_design.seed = 5000 + seed;
      n_domains = 1 + Random.State.int st 2;
      regs_per_domain = 4 + Random.State.int st 8;
      n_config_pins = 1 + Random.State.int st 3;
      n_clock_muxes = Random.State.int st 2;
      with_scan = Random.State.bool st;
    }
  in
  let design, info = Gen_design.generate params in
  let suite =
    {
      Gen_modes.sp_seed = 6000 + seed;
      families = [ 2; 2 ];
      base_period = 2.0;
      scan_family = params.Gen_design.with_scan;
    }
  in
  let modes =
    List.concat_map
      (fun (m : Mode.t) ->
        let renamed suffix m' =
          { m' with Mode.mode_name = m.Mode.mode_name ^ suffix }
        in
        [
          m;
          renamed "_r" (randomize st design m);
          renamed "_d"
            {
              m with
              Mode.disables = List.rev m.Mode.disables @ m.Mode.disables;
            };
        ]
        @ stopped_variants st m)
      (Gen_modes.generate design info suite)
  in
  let report = function
    | None -> ()
    | Some why -> QCheck2.Test.fail_reportf "seed %d: %s" seed why
  in
  report (individual_mismatch modes);
  report (fst (mock_merges_mismatch modes));
  true

(* The constant and clock layers one merge run's store holds: the
   distinct layers of the run. The same at jobs 1 and 2. *)
let pinned_layers =
  [ "A", (204, 204); "B", (6, 6); "C", (51, 51); "D", (7, 7); "E", (15, 15);
    "F", (4, 4) ]

let layer_store_cases =
  List.map
    (fun (p : Presets.preset) ->
      tc
        (Printf.sprintf "preset %s: every mode's stored layers equal fresh ones"
           p.Presets.pr_name)
        (fun () ->
          let _design, _info, modes = Presets.build p in
          fail_on (individual_mismatch modes)))
    Presets.all
  @ List.map
      (fun (p : Presets.preset) ->
        tc
          (Printf.sprintf
             "preset %s: every mock merge's stored layers equal fresh ones"
             p.Presets.pr_name)
          (fun () ->
            let _design, _info, modes = Presets.build p in
            let found, merged = mock_merges_mismatch modes in
            fail_on found;
            check Alcotest.bool "some pairs were mock-merged" true
              (merged > 0)))
      [ Presets.design_a; Presets.design_c ]
  @ [
      QCheck_alcotest.to_alcotest
        (QCheck2.Test.make
           ~name:"generated suites: stored layers equal fresh ones" ~count:20
           QCheck2.Gen.(int_range 0 10000)
           store_equals_fresh);
    ]
  @ List.map
      (fun (p : Presets.preset) ->
        tc
          (Printf.sprintf "preset %s: a merge run builds each layer once"
             p.Presets.pr_name)
          (fun () ->
            let _design, _info, modes = Presets.build p in
            let layers jobs =
              let ctx_cache = Ctx_cache.create () in
              ignore (Merge_flow.run ~jobs ~ctx_cache modes);
              Ctx_cache.layers ctx_cache
            in
            let pinned = List.assoc p.Presets.pr_name pinned_layers in
            let pair = Alcotest.(pair int int) in
            check pair "constant and clock layers at jobs 1" pinned (layers 1);
            check pair "constant and clock layers at jobs 2" pinned (layers 2)))
      Presets.all

let () =
  Alcotest.run "sta_equiv"
    [
      "engine", engine_cases;
      "handoff", handoff_cases;
      "pinned", pinned_cases;
      "arena", arena_cases;
      "cones", cone_cases;
      "jobs_invariance", jobs_invariance_cases;
      "incremental", [ incremental_prop; reused_store_prop ];
      "excmatch", excmatch_cases;
      "compare_cache", compare_cache_cases;
      "const_prop", const_prop_cases;
      "conflict_keys", conflict_cases;
      "layer_store", layer_store_cases;
      "chaos", chaos_cases;
    ]
