module Mode = Mm_sdc.Mode
module Context = Mm_timing.Context

type report = {
  equivalent : bool;
  strictly_equivalent : bool;
  mismatches : int;
  remaining_fixes : int;
  ambiguous_final : int;
  unsound : string list;
  pessimistic : string list;
  compare_result : Compare.result;
}

let of_compare (result : Compare.result) =
  let count_mismatch verdict_of rows =
    List.length (List.filter (fun r -> verdict_of r = Compare.Mismatch) rows)
  in
  let mismatches =
    count_mismatch
      (fun (r : Compare.pass1_row) -> r.Compare.p1_bucket.Compare.bk_verdict)
      result.Compare.pass1
    + count_mismatch
        (fun (r : Compare.pass2_row) -> r.Compare.p2_bucket.Compare.bk_verdict)
        result.Compare.pass2
    + count_mismatch
        (fun (r : Compare.pass3_row) -> r.Compare.p3_bucket.Compare.bk_verdict)
        result.Compare.pass3
  in
  let ambiguous_final = List.length result.Compare.undecided in
  let remaining_fixes = List.length result.Compare.fixes in
  {
    equivalent =
      remaining_fixes = 0 && ambiguous_final = 0
      && result.Compare.unsound = [];
    strictly_equivalent = Compare.is_clean result;
    mismatches;
    remaining_fixes;
    ambiguous_final;
    unsound = result.Compare.unsound;
    pessimistic = result.Compare.pessimism;
    compare_result = result;
  }

let check ?ctx_cache ?merged_ctx ~individual ~rename ~merged () =
  Mm_util.Obs.with_span
    ~attrs:[ "merged", merged.Mode.mode_name ]
    "merge.equiv"
  @@ fun () ->
  let design = merged.Mode.design in
  (* Without a shared cache each side gets its own context: a cache
     keyed by mode name would give two same-named modes one context. *)
  let ctx_of =
    match ctx_cache with
    | Some c -> Mm_timing.Ctx_cache.find c
    | None -> Context.create design
  in
  let sides =
    List.map
      (fun (m : Mode.t) ->
        { Compare.ctx = ctx_of m; rename = rename m.Mode.mode_name })
      individual
  in
  let ctx_m =
    match merged_ctx, ctx_cache with
    | Some ctx, _ when ctx.Context.mode == merged -> ctx
    | _, Some c -> Mm_timing.Ctx_cache.build c merged
    | _, None -> Context.create design merged
  in
  of_compare (Compare.run ~individual:sides ~merged:ctx_m ())
