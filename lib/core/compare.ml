module Design = Mm_netlist.Design
module Mode = Mm_sdc.Mode
module Tgraph = Mm_timing.Tgraph
module Context = Mm_timing.Context
module Cs = Mm_timing.Constraint_state

type verdict = Match | Mismatch | Ambiguous

let verdict_to_string = function Match -> "M" | Mismatch -> "X" | Ambiguous -> "A"

type bucket = {
  bk_launch : string;
  bk_capture : string;
  bk_edge : Mode.edge_sel;
  bk_ind : (Cs.t * Cs.t) list;
  bk_mrg : (Cs.t * Cs.t) list;
  bk_verdict : verdict;
}

type pass1_row = { p1_ep : Design.pin_id; p1_bucket : bucket }

type pass2_row = {
  p2_sp : Design.pin_id;
  p2_ep : Design.pin_id;
  p2_bucket : bucket;
}

type pass3_row = {
  p3_sp : Design.pin_id;
  p3_through : Design.pin_id;
  p3_ep : Design.pin_id;
  p3_bucket : bucket;
}

type evidence = {
  ev_pass : int;
  ev_startpoint : string option;
  ev_through : string option;
  ev_endpoint : string;
  ev_launch : string option;
  ev_capture : string option;
  ev_ind : string;
  ev_mrg : string;
}

type fix = { fix_exc : Mode.exc; fix_reason : string; fix_evidence : evidence }

type result = {
  pass1 : pass1_row list;
  pass2 : pass2_row list;
  pass3 : pass3_row list;
  fixes : fix list;
  unsound : string list;
  pessimism : string list;
  undecided : (Design.pin_id * Design.pin_id) list;
}

type side = { ctx : Context.t; rename : string -> string }

let states_to_string pairs =
  let setups = List.sort_uniq Cs.compare (List.map fst pairs) in
  let by_rank a b = Int.compare (Cs.rank b) (Cs.rank a) in
  match setups with
  | [] -> "-"
  | _ -> String.concat ", " (List.map Cs.to_string (List.sort by_rank setups))

(* ------------------------------------------------------------------ *)
(* State union semantics                                               *)

(* A state "times" the path when the path participates in analysis. *)
let times = function
  | Cs.Valid | Cs.Multicycle _ | Cs.Max_delay_bound _ | Cs.Min_delay_bound _ ->
    true
  | Cs.False_path | Cs.Disabled -> false

(* Multi-mode sign-off requirement of two per-mode states of the same
   path: if either mode times the path, the path is timed, at the
   tightest requirement either mode imposes. *)
let union_state a b =
  match times a, times b with
  | false, false -> Cs.False_path
  | true, false -> a
  | false, true -> b
  | true, true ->
    if Cs.equal a b then a
    else begin
      match a, b with
      | Cs.Multicycle m, Cs.Multicycle n -> Cs.Multicycle (min m n)
      | Cs.Max_delay_bound x, Cs.Max_delay_bound y ->
        Cs.Max_delay_bound (Float.min x y)
      | Cs.Min_delay_bound x, Cs.Min_delay_bound y ->
        Cs.Min_delay_bound (Float.max x y)
      | _ ->
        (* Mixed kinds: the lower-ranked (more permissive) state wins;
           a Valid check subsumes a relaxing exception. *)
        if Cs.rank a <= Cs.rank b then a else b
    end

let union_pair (sa, ha) (sb, hb) = union_state sa sb, union_state ha hb

(* Effective behaviour of a path bundle: None = not timed at all. *)
let union_opt a b =
  match a, b with
  | None, x | x, None -> x
  | Some p, Some q -> Some (union_pair p q)

(* Reduce one side's state set for a bucket. [fine] forces a reduction
   at the finest comparison granularity. *)
let reduce_set ~fine = function
  | [] -> Some None
  | [ p ] -> Some (if times (fst p) || times (snd p) then Some p else None)
  | p :: rest as all ->
    if fine then
      Some
        (List.fold_left
           (fun acc q -> union_opt acc (Some q))
           (Some p) rest)
    else if List.for_all (fun (s, h) -> (not (times s)) && not (times h)) all
    then Some None
    else None

type decision =
  | D_match
  | D_ambiguous
  | D_mismatch of {
      eff_ind : (Cs.t * Cs.t) option;
      eff_mrg : (Cs.t * Cs.t) option;
    }

(* [ind_sets]: one state set per individual mode; [mrg_set]: the merged
   mode's set. *)
let judge ~fine ind_sets mrg_set =
  let ind_reduced =
    List.fold_left
      (fun acc set ->
        match acc, reduce_set ~fine set with
        | Some effs, Some e -> Some (e :: effs)
        | _, None | None, _ -> None)
      (Some []) ind_sets
  in
  match ind_reduced, reduce_set ~fine mrg_set with
  | Some effs, Some eff_mrg ->
    let eff_ind = List.fold_left union_opt None effs in
    if eff_ind = eff_mrg then D_match else D_mismatch { eff_ind; eff_mrg }
  | None, _ | _, None -> D_ambiguous

(* ------------------------------------------------------------------ *)
(* Bucketing                                                           *)

module Key = struct
  type t = string * string * Mode.edge_sel

  let compare (a1, a2, a3) (b1, b2, b3) =
    let c = String.compare a1 b1 in
    if c <> 0 then c
    else
      let c = String.compare a2 b2 in
      if c <> 0 then c else Stdlib.compare a3 b3
end

module KMap = Map.Make (Key)

(* When any side carries rise/fall-specific relations, polarity-blind
   (Any_edge) relations on the other sides expand to both polarities so
   bucket keys line up. An Any_edge relation's state is
   polarity-independent by construction (its mode has no edge-restricted
   exception), so the expansion is exact. *)
let normalize_edge_granularity rel_sides =
  let sensitive =
    List.exists
      (List.exists (fun (r : Relation.t) -> r.Relation.data_edge <> Mode.Any_edge))
      rel_sides
  in
  if not sensitive then rel_sides
  else
    List.map
      (List.concat_map (fun (r : Relation.t) ->
           match r.Relation.data_edge with
           | Mode.Any_edge ->
             [
               { r with Relation.data_edge = Mode.Rise_edge };
               { r with Relation.data_edge = Mode.Fall_edge };
             ]
           | Mode.Rise_edge | Mode.Fall_edge -> [ r ]))
      rel_sides

let pairs_of_rels rels =
  List.fold_left
    (fun m (r : Relation.t) ->
      let k = r.Relation.launch, r.Relation.capture, r.Relation.data_edge in
      let prev = Option.value ~default:[] (KMap.find_opt k m) in
      KMap.add k ((r.Relation.setup_state, r.Relation.hold_state) :: prev) m)
    KMap.empty rels

let norm_pairs l = List.sort_uniq compare l

type judged_bucket = { bucket : bucket; decision : decision }

(* [ind_rels]: one relation list per individual mode (already renamed);
   [mrg_rels]: merged relations. *)
let make_buckets ~fine ind_rels mrg_rels =
  let normalized = normalize_edge_granularity (mrg_rels :: ind_rels) in
  let mrg_rels, ind_rels =
    match normalized with m :: rest -> m, rest | [] -> assert false
  in
  let ind_maps = List.map pairs_of_rels ind_rels in
  let mrg_map = pairs_of_rels mrg_rels in
  let keys =
    List.concat_map (fun m -> KMap.fold (fun k _ acc -> k :: acc) m []) ind_maps
    @ KMap.fold (fun k _ acc -> k :: acc) mrg_map []
    |> List.sort_uniq Key.compare
  in
  List.map
    (fun ((launch, capture, edge) as k) ->
      let ind_sets =
        List.map
          (fun m -> norm_pairs (Option.value ~default:[] (KMap.find_opt k m)))
          ind_maps
      in
      let mrg_set = norm_pairs (Option.value ~default:[] (KMap.find_opt k mrg_map)) in
      let decision = judge ~fine ind_sets mrg_set in
      let verdict =
        match decision with
        | D_match -> Match
        | D_ambiguous -> Ambiguous
        | D_mismatch _ -> Mismatch
      in
      (* Display: once the union across modes is decidable, show the
         effective state (the paper's tables show "V" for a path bundle
         false-pathed in one mode but timed in another); otherwise show
         the flattened set ("FP, V"). *)
      let flattened = norm_pairs (List.concat ind_sets) in
      let shown_ind =
        match decision with
        | D_ambiguous -> flattened
        | D_match | D_mismatch _ -> (
          let effs = List.filter_map (reduce_set ~fine) ind_sets in
          match List.fold_left union_opt None effs with
          | Some p -> [ p ]
          | None -> if flattened = [] then [] else [ Cs.False_path, Cs.False_path ])
      in
      {
        bucket =
          {
            bk_launch = launch;
            bk_capture = capture;
            bk_edge = edge;
            bk_ind = shown_ind;
            bk_mrg = mrg_set;
            bk_verdict = verdict;
          };
        decision;
      })
    keys

(* ------------------------------------------------------------------ *)
(* Fix generation                                                      *)

let kind_of_state = function
  | Cs.False_path | Cs.Disabled -> Some Mode.False_path
  | Cs.Multicycle n -> Some (Mode.Multicycle { mult = n; start = false })
  | Cs.Max_delay_bound v -> Some (Mode.Max_delay v)
  | Cs.Min_delay_bound v -> Some (Mode.Min_delay v)
  | Cs.Valid -> None

(* [a] at least as tight a requirement as [b] (both timing states). *)
let tighter_or_equal a b =
  if Cs.equal a b then true
  else
    match a, b with
    | Cs.Valid, Cs.Multicycle _ -> true
    | Cs.Multicycle m, Cs.Multicycle n -> m <= n
    | Cs.Max_delay_bound x, Cs.Max_delay_bound y -> x <= y
    | Cs.Min_delay_bound x, Cs.Min_delay_bound y -> x >= y
    | _ -> false

(* Resolve one mismatch decision into exceptions to add plus unsound /
   pessimism diagnostics:
   - individual doesn't time, merged does       -> fixable (add exception)
   - individual times, merged checks tighter    -> pessimism (safe)
   - individual times, merged relaxes or drops  -> unsound
   Returns (fixes, unsound, pessimism). *)
let resolve_mismatch ~where ~ev ~from_points ~through ~to_points
    ?(to_edge = Mode.Any_edge) decision =
  match decision with
  | D_match | D_ambiguous -> [], [], []
  | D_mismatch { eff_ind; eff_mrg } ->
    let eff_or_fp = function
      | None -> Cs.False_path, Cs.False_path
      | Some p -> p
    in
    let si, hi = eff_or_fp eff_ind and sm, hm = eff_or_fp eff_mrg in
    let pair_str s h = Printf.sprintf "%s/%s" (Cs.to_string s) (Cs.to_string h) in
    let ev =
      { ev with ev_ind = pair_str si hi; ev_mrg = pair_str sm hm }
    in
    let component ~setup ind mrg =
      if Cs.equal ind mrg then [], [], []
      else if not (times ind) then begin
        if times mrg then
          match kind_of_state ind with
          | Some kind ->
            ( [
                {
                  fix_exc =
                    Mode.exc ~setup ~hold:(not setup) ?from_:from_points
                      ~through ?to_:to_points ~to_edge kind;
                  fix_reason = where;
                  fix_evidence = ev;
                };
              ],
              [],
              [] )
          | None -> [], [], []
        else [], [], []
      end
      else if times mrg && tighter_or_equal mrg ind then
        ( [],
          [],
          [
            Printf.sprintf "pessimistic: %s: merged checks tighter (ind=%s mrg=%s)"
              where (Cs.to_string ind) (Cs.to_string mrg);
          ] )
      else
        ( [],
          [
            Printf.sprintf
              "unsound: %s: merged relaxes or drops a required check (ind=%s \
               mrg=%s)"
              where (Cs.to_string ind) (Cs.to_string mrg);
          ],
          [] )
    in
    let f1, u1, p1 = component ~setup:true si sm in
    let f2, u2, p2 = component ~setup:false hi hm in
    (* Collapse a setup fix and a hold fix of the same kind. *)
    let fixes =
      match f1, f2 with
      | [ a ], [ b ] when a.fix_exc.Mode.exc_kind = b.fix_exc.Mode.exc_kind ->
        [ { a with fix_exc = { a.fix_exc with Mode.exc_setup = true; exc_hold = true } } ]
      | _ -> f1 @ f2
    in
    fixes, u1 @ u2, p1 @ p2

(* Emit the fixes for all judged buckets of one comparison point — an
   endpoint (pass 1), a (startpoint, endpoint) pair (pass 2) or a
   (startpoint, through, endpoint) triple (pass 3), identified by
   [ep], [sp] and [through].

   Granularity is chosen to stay exact: when every bucket of the point
   mismatches identically, one pin-scoped exception suffices (the
   paper's CSTR1 pattern). Otherwise the launch clock and, if needed,
   the capture clock restrict the exception — a capture restriction is
   encoded as "-through <endpoint pin> -to <capture clock>", which is
   precise because endpoint pins have no fanout. *)
let fixes_for_point ~design ?sp ?through ~ep judged =
  let mismatches =
    List.filter (fun jb -> jb.bucket.bk_verdict = Mismatch) judged
  in
  match mismatches with
  | [] -> [], [], []
  | first :: rest_mismatches ->
    (* Names are for the fixes and diagnostics only: most points match,
       so they are built here, not by the caller. *)
    let name = Design.pin_name design in
    let sp_name = Option.map name sp
    and through_name = Option.map name through
    and ep_name = name ep in
    let pass, where =
      match sp_name, through_name with
      | None, _ -> 1, Printf.sprintf "pass1: endpoint %s" ep_name
      | Some s, None -> 2, Printf.sprintf "pass2: %s -> %s" s ep_name
      | Some s, Some t -> 3, Printf.sprintf "pass3: %s -> %s -> %s" s t ep_name
    in
    let prefix_pins = Option.to_list sp @ Option.to_list through in
    let uniform l =
      List.for_all (fun jb -> jb.decision = first.decision) l
    in
    let mk ~with_launch ~with_capture jb =
      let ev =
        {
          ev_pass = pass;
          ev_startpoint = sp_name;
          ev_through = through_name;
          ev_endpoint = ep_name;
          ev_launch = (if with_launch then Some jb.bucket.bk_launch else None);
          ev_capture = (if with_capture then Some jb.bucket.bk_capture else None);
          ev_ind = "";
          ev_mrg = "";
        }
      in
      let from_points, through =
        match prefix_pins, with_launch with
        | [], false -> None, []
        | [], true -> Some [ Mode.P_clock jb.bucket.bk_launch ], []
        | sp :: rest, false ->
          Some [ Mode.P_pin sp ], List.map (fun p -> [ p ]) rest
        | pins, true ->
          ( Some [ Mode.P_clock jb.bucket.bk_launch ],
            List.map (fun p -> [ p ]) pins )
      in
      let through, to_points =
        if with_capture then
          through @ [ [ ep ] ], Some [ Mode.P_clock jb.bucket.bk_capture ]
        else through, Some [ Mode.P_pin ep ]
      in
      resolve_mismatch ~where ~ev ~from_points ~through ~to_points
        ~to_edge:jb.bucket.bk_edge jb.decision
    in
    if List.length mismatches = List.length judged && uniform rest_mismatches
    then mk ~with_launch:false ~with_capture:false first
    else begin
      (* Per launch clock: one exception when that launch's buckets all
         mismatch identically, else per-bucket capture restriction. *)
      let launches =
        List.sort_uniq String.compare
          (List.map (fun jb -> jb.bucket.bk_launch) judged)
      in
      List.fold_left
        (fun (fs, us, ps) launch ->
          let group =
            List.filter (fun jb -> jb.bucket.bk_launch = launch) judged
          in
          let group_mismatches =
            List.filter (fun jb -> jb.bucket.bk_verdict = Mismatch) group
          in
          match group_mismatches with
          | [] -> fs, us, ps
          | g0 :: _ ->
            if
              List.length group_mismatches = List.length group
              && List.for_all (fun jb -> jb.decision = g0.decision) group
            then begin
              let f, u, p = mk ~with_launch:true ~with_capture:false g0 in
              fs @ f, us @ u, ps @ p
            end
            else
              List.fold_left
                (fun (fs, us, ps) jb ->
                  let f, u, p = mk ~with_launch:true ~with_capture:true jb in
                  fs @ f, us @ u, ps @ p)
                (fs, us, ps) group_mismatches)
        ([], [], []) launches
    end

(* ------------------------------------------------------------------ *)
(* Cone buffers                                                        *)

(* One context's buffers for passes 2 and 3: the mark buffer its cones
   are walked into, the tag buffer of pass 2's per-startpoint and pass
   3's forward propagations, and the tag buffer of pass 3's second hop. *)
type lane = {
  l_marks : Relation_prop.marks;
  l_tags : Mm_timing.Tag.Store.t;
  l_hop : Mm_timing.Tag.Store.t;
}

(* What the cone queries of passes 2 and 3 write to and look up: a lane
   for the merged context and one per individual side, and the
   position of each pin among the graph's startpoints and endpoints
   ({!Relation_prop.positions}). It belongs to one [run] or to the
   refinement cache. Contexts hold no buffers: {!Mm_timing.Ctx_cache}
   shares them across domains. *)
type work = {
  w_graph : Tgraph.t;
  w_mrg : lane;
  w_sides : lane list;
  w_sps : Tgraph.startpoint array;
  w_sp_pos : int array;
  w_eps : Tgraph.endpoint array;
  w_ep_pos : int array;
}

let create_work ~individual ~(merged : Context.t) =
  let g = merged.Context.graph in
  let store () = Mm_timing.Tag.Store.create (Tgraph.n_pins g) in
  let lane () =
    {
      l_marks = Relation_prop.create_marks g;
      l_tags = store ();
      l_hop = store ();
    }
  in
  let sps = Array.of_list g.Tgraph.sk_startpoints
  and eps = Array.of_list g.Tgraph.sk_endpoints in
  {
    w_graph = g;
    w_mrg = lane ();
    w_sides = List.map (fun _ -> lane ()) individual;
    w_sps = sps;
    w_sp_pos = Relation_prop.positions g Tgraph.startpoint_pin sps;
    w_eps = eps;
    w_ep_pos = Relation_prop.positions g Tgraph.endpoint_pin eps;
  }

(* ------------------------------------------------------------------ *)
(* Pass 1                                                              *)

let rename_rels rename rels = List.map (Relation.rename rename) rels

(* Packed relation keys. Pass 1 judges an endpoint by its relation
   sets, one per individual side plus the merged one. Each relation is
   interned as an int key in the merged clock namespace and each set
   packed into a sorted key array: a side renames once per clock, not
   per relation, and endpoints with equal sets — most of a design —
   share one [make_buckets] judgement, which is blind to relation order
   and repeats, so a decoded set judges exactly as the relation list it
   packs. *)
module Sets = Hashtbl.Make (struct
  type t = int array list

  let equal = ( = )

  let hash sets =
    List.fold_left
      (fun h a ->
        Array.fold_left (fun h k -> (h * 31) + k) ((h * 31) + Array.length a) a)
      17 sets
    land max_int
end)

type keys = {
  k_clocks : (string, int) Hashtbl.t;  (* merged clock name -> id *)
  k_names : string Mm_util.Vec.t;  (* id -> merged clock name *)
  k_ids : (int * int * Mode.edge_sel * Cs.t * Cs.t, int) Hashtbl.t;
  k_rels : Relation.t Mm_util.Vec.t;  (* key -> relation *)
  k_judged : judged_bucket list Sets.t;  (* merged set :: side sets *)
}

let create_keys () =
  {
    k_clocks = Hashtbl.create 16;
    k_names = Mm_util.Vec.create ();
    k_ids = Hashtbl.create 64;
    k_rels = Mm_util.Vec.create ();
    k_judged = Sets.create 64;
  }

(* Per clock index of [ctx], the id of its merged-namespace name. *)
let clock_ids keys (ctx : Context.t) rename =
  let clocks = ctx.Context.clocks in
  Array.init (Mm_timing.Clock_prop.n_clocks clocks) (fun ci ->
      let name = rename (Mm_timing.Clock_prop.clock_name clocks ci) in
      match Hashtbl.find_opt keys.k_clocks name with
      | Some id -> id
      | None ->
        let id = Mm_util.Vec.push keys.k_names name in
        Hashtbl.replace keys.k_clocks name id;
        id)

let key keys l c data_edge setup hold =
  let k = l, c, data_edge, setup, hold in
  match Hashtbl.find_opt keys.k_ids k with
  | Some id -> id
  | None ->
    let name = Mm_util.Vec.get keys.k_names in
    let id =
      Mm_util.Vec.push keys.k_rels
        (Relation.make ~data_edge ~launch:(name l) ~capture:(name c) ~setup
           ~hold ())
    in
    Hashtbl.replace keys.k_ids k id;
    id

(* The packed relation set at an endpoint of [ctx], whose clock indices
   map to merged ids by [ids]. *)
let pack keys ids ctx tags ep =
  Relation_prop.fold_relations ctx tags ep
    (fun ci cj edge setup hold acc ->
      key keys ids.(ci) ids.(cj) edge setup hold :: acc)
    []
  |> List.sort_uniq Int.compare
  |> Array.of_list

let judge_sets keys mrg_set ind_sets =
  let sets = mrg_set :: ind_sets in
  match Sets.find_opt keys.k_judged sets with
  | Some judged -> judged
  | None ->
    let decode a = Array.to_list (Array.map (Mm_util.Vec.get keys.k_rels) a) in
    let judged =
      make_buckets ~fine:false (List.map decode ind_sets) (decode mrg_set)
    in
    Sets.replace keys.k_judged sets judged;
    judged

(* One endpoint's pass-1 judgement, in the order the result lists take
   it: rows in bucket order, fixes, unsound and pessimism entries
   reversed, as the fold over endpoints has always emitted them. *)
type judged_ep = {
  j_rows : pass1_row list;
  j_fixes : fix list;
  j_unsound : string list;
  j_pessimism : string list;
}

(* Reusable state for repeated [run]s against the same individual sides
   and an exceptions-only-growing merged mode (the refinement loop):
   the sides' packed relation sets are computed once, per merged
   endpoint position, and the merged side goes through the incremental
   {!Relation_prop.ep_cache}. [c_keys] interns the relations of every
   pass. [c_judged] keeps the last pass 1's judgement per endpoint, in
   graph endpoint order: the sides are fixed, so an endpoint whose
   merged set was not recomputed judges the same, and a later pass
   re-judges only the endpoints the ep_cache recomputed.

   [c_pass2] memoises pass 2's individual side per ambiguous endpoint
   pin (see [pass2_candidates]). It stays valid for the whole loop: the
   sides are fixed, and every merged context is
   [Context.with_exceptions base_ctx _], which keeps the graph,
   constants and clocks — and cones read only the graph and the
   enabled arcs, so the merged cone that selects the candidates never
   changes either. Only the merged relations are recomputed.

   [c_work] keeps the cone buffers of the first run that needed them
   for the rest of the loop. *)
type cache = {
  c_keys : keys;
  mutable c_sides : int array array list option;
  c_merged : (Design.pin_id * int array) Relation_prop.ep_cache;
  mutable c_judged : judged_ep array;
  c_pass2 :
    (Design.pin_id, (Tgraph.startpoint * Relation.t list list) list) Hashtbl.t;
  mutable c_work : work option;
}

let create_cache () =
  {
    c_keys = create_keys ();
    c_sides = None;
    c_merged = Relation_prop.create_ep_cache ();
    c_judged = [||];
    c_pass2 = Hashtbl.create 64;
    c_work = None;
  }

(* [remember find store compute]: what [find] holds, else [compute]'s
   result, handed to [store] first — how each cache slot fills. *)
let remember find store compute =
  match find () with
  | Some v -> v
  | None ->
    let v = compute () in
    store v;
    v

let judge_endpoint ~design keys side_sets i (ep, mset) =
  Mm_util.Govern.checkpoint ();
  let judged =
    judge_sets keys mset (List.map (fun sets -> sets.(i)) side_sets)
  in
  let f, u, p = fixes_for_point ~design ~ep judged in
  {
    j_rows = List.map (fun jb -> { p1_ep = ep; p1_bucket = jb.bucket }) judged;
    j_fixes = List.rev f;
    j_unsound = List.rev u;
    j_pessimism = List.rev p;
  }

(* Pass 1: the endpoint count, the number of endpoints judged (only
   those whose merged set was recomputed, when a cache holds the
   rest's judgements), and the rows, fixes, unsound and pessimism
   entries in endpoint order. *)
let pass1 cache ~individual ~(merged : Context.t) () =
  let design = merged.Context.design and g = merged.Context.graph in
  let keys = cache.c_keys in
  let mrg_value =
    let ids = clock_ids keys merged Fun.id in
    fun tags ep -> Tgraph.endpoint_pin ep, pack keys ids merged tags ep
  in
  (* One store for the merged sweep and each side's: every sweep's
     values are read before the next one. *)
  let scratch = Mm_timing.Tag.Store.create (Tgraph.n_pins g) in
  let mrg_sets, recomputed =
    Relation_prop.endpoint_relations_cached cache.c_merged ~scratch merged
      mrg_value
  in
  (* Each side's sets by merged endpoint position; an endpoint the side
     lacks has the empty set. *)
  let side_sets =
    remember
      (fun () -> cache.c_sides)
      (fun sets -> cache.c_sides <- Some sets)
      (fun () ->
        let pos =
          Relation_prop.positions g Tgraph.endpoint_pin
            (Array.of_list g.Tgraph.sk_endpoints)
        in
        List.map
          (fun side ->
            let ids = clock_ids keys side.ctx side.rename in
            let sets = Array.make (Array.length mrg_sets) [||] in
            Array.iter
              (fun (ep, set) -> if pos.(ep) >= 0 then sets.(pos.(ep)) <- set)
              (Relation_prop.endpoint_map side.ctx ~scratch (fun tags ep ->
                   Tgraph.endpoint_pin ep, pack keys ids side.ctx tags ep));
            sets)
          individual)
  in
  let judge = judge_endpoint ~design keys side_sets in
  (* Emptied until this pass completes: an interrupted pass must not
     leave judgements older than the ep_cache's sets. *)
  let previous = cache.c_judged in
  cache.c_judged <- [||];
  let judged, n_judged =
    match recomputed with
    | Some positions when Array.length previous = Array.length mrg_sets ->
      let judged = Array.copy previous in
      List.iter (fun i -> judged.(i) <- judge i mrg_sets.(i)) positions;
      judged, List.length positions
    | Some _ | None -> Array.mapi judge mrg_sets, Array.length mrg_sets
  in
  cache.c_judged <- judged;
  Mm_util.Metrics.incr ~by:(Array.length mrg_sets) "compare.endpoints_visited";
  let concat field = Array.fold_right (fun j acc -> field j @ acc) judged [] in
  ( Array.length mrg_sets,
    n_judged,
    concat (fun j -> j.j_rows),
    concat (fun j -> j.j_fixes),
    concat (fun j -> j.j_unsound),
    concat (fun j -> j.j_pessimism) )

(* ------------------------------------------------------------------ *)
(* Pass 2                                                              *)

let relations_from_sp ctx sp ep ~cone ~scratch =
  let seeds = Mm_timing.Tag.launches ctx sp in
  let tags = Relation_prop.propagate ctx ~seeds ~cone ~scratch () in
  Relation_prop.relations_at ctx tags ep

(* The individual side of one ambiguous endpoint: in merged-graph
   startpoint order, every startpoint inside the merged cone or any
   individual cone, with its renamed per-side relations. A startpoint
   outside the merged cone with no individual relations is dropped —
   it can compare nothing, since a startpoint's seeds sit on its own
   pin, so outside the merged cone the merged side has no relations
   either. The startpoints are read off the cones' pins. *)
let pass2_candidates ~individual ~work ~mrg_cone ep_pin ep =
  let side_cones =
    List.map2
      (fun side lane ->
        side, Relation_prop.backward_cone lane.l_marks side.ctx [ ep_pin ], lane)
      individual work.w_sides
  in
  let positions = ref [] in
  let collect cone =
    List.iter
      (fun pin ->
        let i = work.w_sp_pos.(pin) in
        if i >= 0 then positions := i :: !positions)
      (Relation_prop.cone_pins cone)
  in
  collect mrg_cone;
  List.iter (fun (_, cone, _) -> collect cone) side_cones;
  List.filter_map
    (fun i ->
      let sp = work.w_sps.(i) in
      let ind_rels =
        List.map
          (fun (side, cone, lane) ->
            rename_rels side.rename
              (relations_from_sp side.ctx sp ep ~cone ~scratch:lane.l_tags))
          side_cones
      in
      if
        Relation_prop.in_cone mrg_cone (Tgraph.startpoint_pin sp)
        || List.exists (( <> ) []) ind_rels
      then Some (sp, ind_rels)
      else None)
    (List.sort_uniq Int.compare !positions)

let pass2 cache ~individual ~(merged : Context.t) ~work ambiguous_eps =
  let design = merged.Context.design in
  let rows = ref [] and fixes = ref [] and unsound = ref []
  and pessimism = ref [] and ambiguous_pairs = ref [] and compared = ref 0 in
  List.iter
    (fun ep_pin ->
      (* Cooperative cancellation point, once per endpoint cone. *)
      Mm_util.Govern.checkpoint ();
      let work = Lazy.force work in
      match work.w_ep_pos.(ep_pin) with
      | -1 -> ()
      | i ->
        let ep = work.w_eps.(i) and mrg_lane = work.w_mrg in
        let mrg_cone =
          Relation_prop.backward_cone mrg_lane.l_marks merged [ ep_pin ]
        in
        let candidates =
          remember
            (fun () -> Hashtbl.find_opt cache.c_pass2 ep_pin)
            (Hashtbl.replace cache.c_pass2 ep_pin)
            (fun () -> pass2_candidates ~individual ~work ~mrg_cone ep_pin ep)
        in
        List.iter
          (fun (sp, ind_rels) ->
            let sp_pin = Tgraph.startpoint_pin sp in
            let mrels =
              if Relation_prop.in_cone mrg_cone sp_pin then
                relations_from_sp merged sp ep ~cone:mrg_cone
                  ~scratch:mrg_lane.l_tags
              else []
            in
            if List.for_all (( = ) []) ind_rels && mrels = [] then ()
            else begin
              incr compared;
              let judged = make_buckets ~fine:false ind_rels mrels in
              List.iter
                (fun jb ->
                  rows :=
                    { p2_sp = sp_pin; p2_ep = ep_pin; p2_bucket = jb.bucket }
                    :: !rows;
                  if jb.bucket.bk_verdict = Ambiguous then
                    ambiguous_pairs := (sp, ep) :: !ambiguous_pairs)
                judged;
              let f, u, p =
                fixes_for_point ~design ~sp:sp_pin ~ep:ep_pin judged
              in
              fixes := f @ !fixes;
              unsound := u @ !unsound;
              pessimism := p @ !pessimism
            end)
          candidates)
    ambiguous_eps;
  Mm_util.Metrics.incr ~by:!compared "compare.pairs_compared";
  ( List.rev !rows,
    List.rev !fixes,
    List.rev !unsound,
    List.rev !pessimism,
    List.sort_uniq compare !ambiguous_pairs )

(* ------------------------------------------------------------------ *)
(* Pass 3                                                              *)

(* Through-pins pass 3 may visit per (startpoint, endpoint) pair. A
   pair whose exploration still has pins queued when it runs out is
   undecided: it goes to [result.undecided], which makes the
   equivalence verdict fail. *)
let budget = 2000

let relations_through ctx fwd_tags t ep ~cone ~scratch =
  if not (Mm_timing.Tag.Store.has_tags fwd_tags t) then []
  else
    let tags = Relation_prop.propagate_from ctx fwd_tags t ~cone ~scratch () in
    Relation_prop.relations_at ctx tags ep

let successors (ctx : Context.t) pin =
  let g = ctx.Context.graph in
  let acc = ref [] in
  Tgraph.iter_out g pin (fun aid ->
      if Mm_timing.Const_prop.enabled ctx.Context.consts aid then
        acc := Tgraph.arc_dst g aid :: !acc);
  List.rev !acc

let pass3 ~individual ~(merged : Context.t) ~work pairs =
  let design = merged.Context.design in
  let rows = ref [] and fixes = ref [] and unsound = ref []
  and pessimism = ref [] and undecided = ref [] and reconv = ref 0 in
  List.iter
    (fun (sp, ep) ->
      let work = Lazy.force work in
      let sp_pin = Tgraph.startpoint_pin sp
      and ep_pin = Tgraph.endpoint_pin ep in
      (* Per context: the cone between the startpoint and the endpoint,
         and one forward propagation from the startpoint inside it,
         read for every candidate through-pin; the second hop reuses
         the lane's other tag buffer. *)
      let prepare lane ctx =
        let seeds = Mm_timing.Tag.launches ctx sp in
        let seed_pins = List.map (fun l -> l.Mm_timing.Tag.launch_pin) seeds in
        if seed_pins = [] then None
        else begin
          let within =
            Relation_prop.backward_cone lane.l_marks ctx [ ep_pin ]
          in
          let cone =
            Relation_prop.forward_cone lane.l_marks ~within ctx seed_pins
          in
          let fwd =
            Relation_prop.propagate ctx ~seeds ~cone ~scratch:lane.l_tags ()
          in
          Some (cone, lane.l_hop, fwd)
        end
      in
      let mrg_prep = prepare work.w_mrg merged in
      let side_preps =
        List.concat
          (List.map2
             (fun side lane ->
               match prepare lane side.ctx with
               | Some p -> [ side, p ]
               | None -> [])
             individual work.w_sides)
      in
      let in_union pin =
        (match mrg_prep with
        | Some (c, _, _) -> Relation_prop.in_cone c pin
        | None -> false)
        || List.exists (fun (_, (c, _, _)) -> Relation_prop.in_cone c pin) side_preps
      in
      let visited = Hashtbl.create 32 in
      let queue = Queue.create () in
      let push pin =
        if in_union pin && not (Hashtbl.mem visited pin) then begin
          Hashtbl.replace visited pin ();
          Queue.add pin queue
        end
      in
      List.iter push (successors merged sp_pin);
      List.iter
        (fun (side, _) -> List.iter push (successors side.ctx sp_pin))
        side_preps;
      let left = ref budget in
      while not (Queue.is_empty queue) && !left > 0 do
        decr left;
        let t = Queue.take queue in
        let fine = t = ep_pin in
        let ind_rels =
          List.map
            (fun (side, (cone, scratch, fwd)) ->
              rename_rels side.rename
                (relations_through side.ctx fwd t ep ~cone ~scratch))
            side_preps
        in
        let mrels =
          match mrg_prep with
          | Some (cone, scratch, fwd) ->
            relations_through merged fwd t ep ~cone ~scratch
          | None -> []
        in
        if List.for_all (( = ) []) ind_rels && mrels = [] then
          List.iter push (successors merged t)
        else begin
          incr reconv;
          let judged = make_buckets ~fine ind_rels mrels in
          let any_ambiguous = ref false in
          List.iter
            (fun jb ->
              match jb.bucket.bk_verdict with
              | Ambiguous -> any_ambiguous := true
              | Match | Mismatch ->
                rows :=
                  { p3_sp = sp_pin; p3_through = t; p3_ep = ep_pin; p3_bucket = jb.bucket }
                  :: !rows)
            judged;
          let f, u, p =
            fixes_for_point ~design ~sp:sp_pin ~through:t ~ep:ep_pin judged
          in
          fixes := f @ !fixes;
          unsound := u @ !unsound;
          pessimism := p @ !pessimism;
          if !any_ambiguous && not fine then begin
            List.iter push (successors merged t);
            List.iter
              (fun (side, _) -> List.iter push (successors side.ctx t))
              side_preps
          end
        end
      done;
      if not (Queue.is_empty queue) then
        undecided := (sp_pin, ep_pin) :: !undecided)
    pairs;
  Mm_util.Metrics.incr ~by:!reconv "compare.reconv_points";
  ( List.rev !rows,
    List.rev !fixes,
    List.rev !unsound,
    List.rev !pessimism,
    List.rev !undecided )

(* ------------------------------------------------------------------ *)

let dedup_fixes fixes =
  let rec go acc = function
    | [] -> List.rev acc
    | f :: rest ->
      if List.exists (fun g -> Mode.exc_equal g.fix_exc f.fix_exc) acc then
        go acc rest
      else go (f :: acc) rest
  in
  go [] fixes

let run ?(cache = create_cache ()) ~individual ~merged () =
  let module Obs = Mm_util.Obs in
  let work =
    lazy
      (remember
         (fun () ->
           Option.bind cache.c_work (fun w ->
               if w.w_graph == merged.Context.graph then Some w else None))
         (fun w -> cache.c_work <- Some w)
         (fun () -> create_work ~individual ~merged))
  in
  let n_eps, _, p1_rows, p1_fixes, p1_uns, p1_pes =
    Obs.with_span "compare.pass1"
      ~result_attrs:(fun (_, n_judged, _, _, _, _) ->
        [ "rejudged", string_of_int n_judged ])
      (fun () -> pass1 cache ~individual ~merged ())
  in
  let ambiguous_eps =
    List.filter_map
      (fun r -> if r.p1_bucket.bk_verdict = Ambiguous then Some r.p1_ep else None)
      p1_rows
    |> List.sort_uniq compare
  in
  Mm_util.Metrics.incr
    ~by:(max 0 (n_eps - List.length ambiguous_eps))
    "compare.endpoints_pruned";
  let p2_rows, p2_fixes, p2_uns, p2_pes, ambiguous_pairs =
    Obs.with_span "compare.pass2"
      ~attrs:[ "ambiguous_endpoints", string_of_int (List.length ambiguous_eps) ]
      (fun () -> pass2 cache ~individual ~merged ~work ambiguous_eps)
  in
  let p3_rows, p3_fixes, p3_uns, p3_pes, undecided =
    Obs.with_span "compare.pass3"
      ~attrs:[ "ambiguous_pairs", string_of_int (List.length ambiguous_pairs) ]
      (fun () -> pass3 ~individual ~merged ~work ambiguous_pairs)
  in
  let fixes = dedup_fixes (p1_fixes @ p2_fixes @ p3_fixes) in
  Mm_util.Metrics.incr ~by:(List.length fixes) "compare.fixes";
  {
    pass1 = p1_rows;
    pass2 = p2_rows;
    pass3 = p3_rows;
    fixes;
    unsound = List.sort_uniq compare (p1_uns @ p2_uns @ p3_uns);
    pessimism = List.sort_uniq compare (p1_pes @ p2_pes @ p3_pes);
    undecided;
  }

let is_clean r =
  r.unsound = [] && r.pessimism = [] && r.undecided = []
  && List.for_all (fun x -> x.p1_bucket.bk_verdict <> Mismatch) r.pass1
  && List.for_all (fun x -> x.p2_bucket.bk_verdict <> Mismatch) r.pass2
  && List.for_all (fun x -> x.p3_bucket.bk_verdict <> Mismatch) r.pass3
