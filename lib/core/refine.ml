module Design = Mm_netlist.Design
module Mode = Mm_sdc.Mode
module Context = Mm_timing.Context
module Clock_prop = Mm_timing.Clock_prop
module Tgraph = Mm_timing.Tgraph

type added_origin =
  | From_data_clock of string * Design.pin_id
  | From_fix of Compare.fix

type t = {
  refined : Mode.t;
  refined_ctx : Context.t option;
      (* analysis context matching [refined]; lets downstream stages
         (equivalence check) skip rebuilding graph/consts/clocks.
         Merge groups keep the result with this stripped to None, so
         a group does not pin a context's arrays *)
  data_clock_fixes : (string * Design.pin_id) list;
  added_exceptions : Mode.exc list;
  added_lineage : (Mode.exc * added_origin list) list;
  final_compare : Compare.result;
  iterations : int;
}

(* Coalesce refinement exceptions, mirroring the paper's CSTR6 which
   lists several pins in one -through: exceptions identical except for
   their -to pin set merge into one (to-sets union); exceptions
   identical except for a single-group -through merge into one group.
   Both rewrites are exact unions of the originals' match sets.

   Each input exception carries a list of lineage tags; merging
   concatenates the tags, so a coalesced exception remembers every
   fix/refinement that contributed to it. The merge groups live in an
   input-ordered association list (not a hash table), so the output
   order is canonically the first-occurrence input order — the
   provenance ids and annotated SDC depend on that stability. *)
let sort_points l = List.sort_uniq compare l

type 'a merge_slot = {
  slot_exc : Mode.exc;
  mutable slot_pts : Mode.point list;  (* merged -to sets, pass A *)
  mutable slot_pins : Design.pin_id list;  (* merged -through group, pass B *)
  mutable slot_tags : 'a list;  (* reverse accumulation *)
}

let coalesce_tagged tagged =
  let norm_from e =
    Option.map sort_points e.Mode.exc_from, e.Mode.exc_kind, e.Mode.exc_setup,
    e.Mode.exc_hold
  in
  (* Ordered grouping: [find] is linear, but refinement adds tens of
     exceptions at most per iteration. *)
  let group ~key_of ~merge ~init items =
    let order = ref [] in
    List.iter
      (fun (e, tags) ->
        match key_of e with
        | None -> order := `Keep (e, tags) :: !order
        | Some key -> (
          let slot_of = function
            | `Merge (k, slot) when k = key -> Some slot
            | `Merge _ | `Keep _ -> None
          in
          match List.find_map slot_of !order with
          | Some slot ->
            merge slot e;
            slot.slot_tags <- List.rev_append tags slot.slot_tags
          | None ->
            let slot =
              { slot_exc = e; slot_pts = []; slot_pins = [];
                slot_tags = List.rev tags }
            in
            init slot e;
            order := `Merge (key, slot) :: !order))
      items;
    List.rev !order
  in
  let finish rebuild grouped =
    List.map
      (function
        | `Keep (e, tags) -> e, tags
        | `Merge (_, slot) -> rebuild slot, List.rev slot.slot_tags)
      grouped
  in
  (* Pass A: merge -to sets for equal (kind, sides, from, through). *)
  let step_a =
    group tagged
      ~key_of:(fun e ->
        match e.Mode.exc_to with
        | Some _ -> Some (norm_from e, List.map sort_points e.Mode.exc_through)
        | None -> None)
      ~init:(fun slot e ->
        slot.slot_pts <- Option.value ~default:[] e.Mode.exc_to)
      ~merge:(fun slot e ->
        slot.slot_pts <-
          Option.value ~default:[] e.Mode.exc_to @ slot.slot_pts)
    |> finish (fun slot ->
           { slot.slot_exc with Mode.exc_to = Some (sort_points slot.slot_pts) })
  in
  (* Pass B: merge single-group -through pin sets for equal
     (kind, sides, from, to). *)
  group step_a
    ~key_of:(fun e ->
      match e.Mode.exc_through with
      | [ _ ] -> Some (norm_from e, Option.map sort_points e.Mode.exc_to)
      | [] | _ :: _ :: _ -> None)
    ~init:(fun slot e ->
      slot.slot_pins <- (match e.Mode.exc_through with [ p ] -> p | _ -> []))
    ~merge:(fun slot e ->
      slot.slot_pins <-
        (match e.Mode.exc_through with [ p ] -> p | _ -> []) @ slot.slot_pins)
  |> finish (fun slot ->
         {
           slot.slot_exc with
           Mode.exc_through = [ List.sort_uniq compare slot.slot_pins ];
         })

let data_clock_refinement ~ctx_cache (prelim : Prelim.t) individual ctxs =
  let merged = prelim.Prelim.merged in
  let ctx_m =
    match prelim.Prelim.merged_ctx with
    | Some c -> c
    | None -> Mm_timing.Ctx_cache.build ctx_cache merged
  in
  let data_masks ctx = Array.get (Relation_prop.data_clock_masks ctx) in
  let fixes =
    Clock_prop.extra_frontier ctx_m.Context.clocks ctx_m.Context.graph
      ~through:(Mm_timing.Const_prop.enabled ctx_m.Context.consts)
      ~merged:(data_masks ctx_m)
      (List.map2
         (fun (m : Mode.t) (ctx_i : Context.t) ->
           ( ctx_i.Context.clocks,
             (fun c -> Some (Prelim.rename_of prelim m.Mode.mode_name c)),
             data_masks ctx_i ))
         individual ctxs)
  in
  let tagged =
    coalesce_tagged
      (List.map
         (fun (clock, pin) ->
           ( Mode.exc ~from_:[ Mode.P_clock clock ] ~through:[ [ pin ] ]
               Mode.False_path,
             [ From_data_clock (clock, pin) ] ))
         fixes)
  in
  let excs = List.map fst tagged in
  ( { merged with Mode.exceptions = merged.Mode.exceptions @ excs },
    fixes,
    tagged,
    ctx_m )

(* Bound on the compare/fix loop's iterations. *)
let max_iters = 4

let run ?ctx_cache ~(prelim : Prelim.t) ~individual () =
  Mm_util.Obs.with_span
    ~attrs:[ "merged", prelim.Prelim.merged.Mode.mode_name ]
    "merge.refine"
  @@ fun () ->
  let ctx_cache =
    match ctx_cache with
    | Some c -> c
    | None -> Mm_timing.Ctx_cache.create ()
  in
  let ctxs = List.map (Mm_timing.Ctx_cache.find ctx_cache) individual in
  let sides =
    List.map2
      (fun (m : Mode.t) ctx ->
        { Compare.ctx; rename = Prelim.rename_of prelim m.Mode.mode_name })
      individual ctxs
  in
  (* Step 1: data-network clock refinement. *)
  let merged, data_clock_fixes, step1_tagged, base_ctx =
    data_clock_refinement ~ctx_cache prelim individual ctxs
  in
  (* Step 2: compare/fix loop. Every iteration's mode differs from
     [base_ctx]'s only by appended exceptions, so the context is
     re-derived via {!Context.with_exceptions} (graph, constants and
     clock propagation reused) and pass 1 goes through the incremental
     compare cache. *)
  let cmp_cache = Compare.create_cache () in
  let rec loop merged added iter =
    let ctx_m =
      Mm_util.Obs.with_span "sta.incremental_reuse"
        ~attrs:[ "what", "refine-context"; "iter", string_of_int iter ]
        (fun () -> Context.with_exceptions base_ctx merged)
    in
    let result = Compare.run ~cache:cmp_cache ~individual:sides ~merged:ctx_m () in
    let new_fixes =
      List.filter
        (fun (f : Compare.fix) ->
          not (List.exists (Mode.exc_equal f.Compare.fix_exc) merged.Mode.exceptions))
        result.Compare.fixes
    in
    if new_fixes = [] || iter >= max_iters then merged, ctx_m, added, result, iter
    else begin
      let tagged =
        coalesce_tagged
          (List.map (fun f -> f.Compare.fix_exc, [ From_fix f ]) new_fixes)
      in
      let excs = List.map fst tagged in
      loop
        { merged with Mode.exceptions = merged.Mode.exceptions @ excs }
        (added @ tagged) (iter + 1)
    end
  in
  let refined, refined_ctx, added_lineage, final_compare, iterations =
    loop merged step1_tagged 1
  in
  let added = List.map fst added_lineage in
  Mm_util.Metrics.incr ~by:(List.length added) "refine.false_paths_added";
  Mm_util.Metrics.observe "refine.iterations" (float_of_int iterations);
  {
    refined;
    refined_ctx = Some refined_ctx;
    data_clock_fixes;
    added_exceptions = added;
    added_lineage;
    final_compare;
    iterations;
  }
