module Mode = Mm_sdc.Mode
module Design = Mm_netlist.Design
module Obs = Mm_util.Obs
module Metrics = Mm_util.Metrics
module Pool = Mm_util.Pool
module Govern = Mm_util.Govern
module Context = Mm_timing.Context
module Ctx_cache = Mm_timing.Ctx_cache
module Clock_prop = Mm_timing.Clock_prop
module Tgraph = Mm_timing.Tgraph
module Toler = Mm_util.Toler

type reason =
  | Conflict of Conflict_key.reason
  | Blocked of {
      design : Design.t;
      clock : string;
      mode : string;
      pin : Design.pin_id;
    }
  | Note of string

let reason_text = function
  | Conflict r -> Conflict_key.reason_text r
  | Blocked { design; clock; mode; pin } ->
    Printf.sprintf "clock %s of mode %s blocked at %s in the merged mode" clock
      mode (Design.pin_name design pin)
  | Note text -> text

let note text = Note text

type pair_check = { mergeable : bool; reasons : reason list }

(* Clock blocking check: every (register clock pin, clock) live in an
   individual mode must remain live in the merged mode after clock
   refinement (the merged clock may be renamed). *)
let blocked_clocks ctx_cache (prelim : Prelim.t) individual =
  let design = prelim.Prelim.merged.Mode.design in
  let ctx_m =
    match prelim.Prelim.merged_ctx with
    | Some c -> c
    | None -> Ctx_cache.build ctx_cache prelim.Prelim.merged
  in
  let reasons = ref [] in
  List.iter
    (fun (m : Mode.t) ->
      let ctx_i : Context.t = Ctx_cache.find ctx_cache m in
      List.iter
        (function
          | Tgraph.Sp_reg { sp_clock; _ } ->
            List.iter
              (fun ci ->
                let local = Clock_prop.clock_name ctx_i.Context.clocks ci in
                let merged_name = Prelim.rename_of prelim m.Mode.mode_name local in
                let live =
                  match Clock_prop.clock_index ctx_m.Context.clocks merged_name with
                  | Some j -> Clock_prop.has_clock ctx_m.Context.clocks sp_clock j
                  | None -> false
                in
                if not live then
                  reasons :=
                    Blocked
                      {
                        design;
                        clock = local;
                        mode = m.Mode.mode_name;
                        pin = sp_clock;
                      }
                    :: !reasons)
              (Clock_prop.fold_indices
                 (Clock_prop.mask_at ctx_i.Context.clocks sp_clock)
                 List.cons [])
          | Tgraph.Sp_port _ -> ())
        ctx_i.Context.graph.Tgraph.sk_startpoints)
    individual;
  List.rev !reasons

(* The pair check, and whether it ran the mock merge. Stage 1 compares
   the two modes' conflict keys: value/tolerance conflicts and
   non-uniquifiable exceptions reject the pair with no merge at all,
   which settles most of the O(N^2) sweep over many modes. Stage 2
   runs the full mock merge with clock refinement and the
   clock-blocking soundness check. *)
let check_keys ?(tolerance = Toler.default) ~ctx_cache ka kb =
  let ctx_of = Ctx_cache.find ctx_cache in
  match
    Conflict_key.conflicts ~tolerance ~ctx_of
      (Conflict_key.merge [ ka; kb ])
  with
  | _ :: _ as conflicts ->
    { mergeable = false; reasons = List.map (fun r -> Conflict r) conflicts },
    false
  | [] ->
    let pair = [ Conflict_key.mode ka; Conflict_key.mode kb ] in
    let prelim =
      Prelim.merge ~tolerance ~max_refine_iters:3 ~ctx_cache ~name:"__mock" pair
    in
    let reasons = blocked_clocks ctx_cache prelim pair in
    { mergeable = reasons = []; reasons }, true

let check_pair ?tolerance ?ctx_cache a b =
  let ctx_cache =
    match ctx_cache with Some c -> c | None -> Ctx_cache.create ()
  in
  fst
    (check_keys ?tolerance ~ctx_cache (Conflict_key.of_mode a)
       (Conflict_key.of_mode b))

type t = {
  mode_names : string array;
  adjacency : bool array array;
  cliques : int list list;
  pair_reasons : (int * int, reason list) Hashtbl.t;
}

let reasons t pair =
  List.map reason_text
    (Option.value (Hashtbl.find_opt t.pair_reasons pair) ~default:[])

let greedy_cliques adjacency =
  let n = Array.length adjacency in
  let degree i =
    Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 adjacency.(i)
  in
  let order =
    List.sort
      (fun a b -> compare (degree b, a) (degree a, b))
      (List.init n Fun.id)
  in
  let assigned = Array.make n false in
  let cliques = ref [] in
  List.iter
    (fun v ->
      if not assigned.(v) then begin
        assigned.(v) <- true;
        let members = ref [ v ] in
        List.iter
          (fun u ->
            if
              (not assigned.(u))
              && List.for_all (fun w -> adjacency.(u).(w)) !members
            then begin
              assigned.(u) <- true;
              members := u :: !members
            end)
          order;
        cliques := List.sort compare !members :: !cliques
      end)
    order;
  List.rev !cliques

(* Minimum clique cover by branch and bound: vertices are assigned in
   index order to an existing compatible clique or a fresh one; the
   best (fewest-cliques) complete assignment wins. Exponential in the
   worst case, fine for the paper's "small number of modes". *)
let exact_cliques ?(limit = 20) adjacency =
  let n = Array.length adjacency in
  if n > limit then greedy_cliques adjacency
  else begin
    let best = ref (greedy_cliques adjacency) in
    let best_count = ref (List.length !best) in
    let cliques : int list array = Array.make n [] in
    let rec go v used =
      if used >= !best_count then () (* prune *)
      else if v = n then begin
        best := Array.to_list (Array.sub cliques 0 used) |> List.map List.rev;
        best_count := used
      end
      else begin
        for c = 0 to used - 1 do
          if List.for_all (fun u -> adjacency.(v).(u)) cliques.(c) then begin
            cliques.(c) <- v :: cliques.(c);
            go (v + 1) used;
            cliques.(c) <- List.tl cliques.(c)
          end
        done;
        if used + 1 < !best_count then begin
          cliques.(used) <- [ v ];
          go (v + 1) (used + 1);
          cliques.(used) <- []
        end
      end
    in
    go 0 0;
    List.map (List.sort compare) !best |> List.sort compare
  end

(* The sweep, with the number of pairs the key compare rejected and
   the number that ran the mock merge. *)
let sweep ?tolerance ~ctx_cache ~pool ~govern ?task_budget_s ~settle
    modes =
  let arr = Array.of_list modes in
  let n = Array.length arr in
  let adjacency = Array.make_matrix n n false in
  let pair_reasons = Hashtbl.create 16 in
  let pairs = ref [] in
  for i = n - 1 downto 0 do
    for j = n - 1 downto i + 1 do
      pairs := (i, j) :: !pairs
    done
  done;
  (* Build every individual context and conflict key first, one task
     per mode, so pair tasks on different workers never race to build
     the same context. A build that fails here is left to the pair
     checks that need it, which own the failure handling. Fewer than two
     modes make no pair, so nothing is built. *)
  let keys =
    if n < 2 then [||]
    else
      Pool.map_outcome pool ~govern
        (fun m ->
          ignore (Ctx_cache.find (Ctx_cache.fork ctx_cache) m);
          Conflict_key.of_mode m)
        modes
      |> List.map (function Govern.Done k -> Some k | _ -> None)
      |> Array.of_list
  in
  let key i =
    match keys.(i) with Some k -> k | None -> Conflict_key.of_mode arr.(i)
  in
  (* Each pairwise check is an independent task: a forked cache handle
     keeps lookups lock-free after the first touch of each mode. *)
  let check_one (i, j) =
    check_keys ?tolerance ~ctx_cache:(Ctx_cache.fork ctx_cache) (key i) (key j)
  in
  let outcomes = Pool.map_outcome pool ~govern ?task_budget_s check_one !pairs in
  (* Fold in pair order; the caller settles a check that did not
     complete, on this domain and in pair order. *)
  let key_rejected = ref 0 and mock_merged = ref 0 in
  let resolve (i, j) outcome =
    let settled o =
      settle ~scope:(arr.(i).Mode.mode_name ^ "+" ^ arr.(j).Mode.mode_name) o
    in
    match outcome with
    | Govern.Done (c, mocked) ->
      incr (if mocked then mock_merged else key_rejected);
      c
    | Govern.Interrupted r -> settled (Govern.Interrupted r)
    | Govern.Crashed c -> settled (Govern.Crashed c)
  in
  List.iter2
    (fun (i, j) outcome ->
      let check = resolve (i, j) outcome in
      adjacency.(i).(j) <- check.mergeable;
      adjacency.(j).(i) <- check.mergeable;
      if not check.mergeable then
        Hashtbl.replace pair_reasons (i, j) check.reasons)
    !pairs outcomes;
  Metrics.incr ~by:(n * (n - 1) / 2) "merge.pairs_checked";
  ( {
      mode_names = Array.map (fun (m : Mode.t) -> m.Mode.mode_name) arr;
      adjacency;
      cliques = greedy_cliques adjacency;
      pair_reasons;
    },
    !key_rejected,
    !mock_merged )

let analyze ?tolerance ?ctx_cache ?pool ?(govern = Govern.never) ?task_budget_s
    ?(settle = fun ~scope:_ o -> Govern.value o) modes =
  let ctx_cache =
    match ctx_cache with Some c -> c | None -> Ctx_cache.create ()
  in
  let run pool =
    let t, _, _ =
      Obs.with_span
        ~attrs:[ "modes", string_of_int (List.length modes) ]
        ~result_attrs:(fun (_, key_rejected, mock_merged) ->
          [
            "key_rejected", string_of_int key_rejected;
            "mock_merged", string_of_int mock_merged;
          ])
        "merge.mergeability"
        (fun () ->
          sweep ?tolerance ~ctx_cache ~pool ~govern ?task_budget_s
            ~settle modes)
    in
    t
  in
  match pool with Some pool -> run pool | None -> Pool.with_pool ~jobs:1 run

let clique_modes t modes =
  let arr = Array.of_list modes in
  List.map (fun clique -> List.map (fun i -> arr.(i)) clique) t.cliques

let edges t =
  let n = Array.length t.mode_names in
  let acc = ref [] in
  for i = n - 1 downto 0 do
    for j = n - 1 downto i + 1 do
      if t.adjacency.(i).(j) then acc := (i, j) :: !acc
    done
  done;
  !acc
