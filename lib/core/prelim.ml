module Design = Mm_netlist.Design
module Mode = Mm_sdc.Mode
module Toler = Mm_util.Toler
module Obs = Mm_util.Obs
module Metrics = Mm_util.Metrics
module Context = Mm_timing.Context
module Ctx_cache = Mm_timing.Ctx_cache
module Clock_prop = Mm_timing.Clock_prop
module Tgraph = Mm_timing.Tgraph

type t = {
  merged : Mode.t;
  merged_ctx : Context.t option;
      (* context of [merged] built by the converged clock refinement;
         merge groups keep the prelim without it, so it does not pin a
         context's arrays for the rest of the run *)
  clock_map : (string * string, string) Hashtbl.t;
  dropped_cases : (string * Design.pin_id * bool) list;
  dropped_exceptions : (string * Mode.exc) list;
  uniquified : (string * Mode.exc) list;
  inferred_disables : Design.pin_id list;
  inferred_senses : (string * Design.pin_id) list;
  derived_groups : Mode.clock_group list;
  conflicts : string list;
}

let rename_of t mode_name clock =
  match Hashtbl.find_opt t.clock_map (mode_name, clock) with
  | Some m -> m
  | None -> clock

(* ------------------------------------------------------------------ *)
(* 3.1.1 Union of clocks                                               *)

let union_clocks keys =
  let clock_map = Hashtbl.create 32 in
  List.iter
    (fun mb ->
      let mode_name = (Conflict_key.member_mode mb).Mode.mode_name in
      List.iter
        (fun (ck, (c : Mode.clock)) ->
          Hashtbl.replace clock_map (mode_name, c.Mode.clk_name)
            (Conflict_key.merged_name keys ck))
        (Conflict_key.member_clocks mb))
    (Conflict_key.members keys);
  List.map snd (Conflict_key.merged_clocks keys), clock_map

(* ------------------------------------------------------------------ *)
(* 3.1.2 Clock attributes with tolerance                               *)

(* The values of a merged clock's attribute merge conservatively: min
   of mins, max of maxs. A mode without the attribute leaves it
   unconstrained; {!Conflict_key.conflicts} vetoes values beyond
   tolerance. *)
let merge_attrs keys =
  List.map
    (fun (ck, (mc : Mode.clock)) ->
      let contributions = Conflict_key.attr_contributions keys ck in
      let field ~is_min get =
        match List.filter_map get contributions with
        | [] -> None
        | v0 :: rest ->
          Some
            (List.fold_left
               (if is_min then Toler.merge_min else Toler.merge_max)
               v0 rest)
      in
      ( mc.Mode.clk_name,
        {
          Mode.src_latency_min = field ~is_min:true (fun a -> a.Mode.src_latency_min);
          src_latency_max = field ~is_min:false (fun a -> a.Mode.src_latency_max);
          net_latency_min = field ~is_min:true (fun a -> a.Mode.net_latency_min);
          net_latency_max = field ~is_min:false (fun a -> a.Mode.net_latency_max);
          uncertainty_setup = field ~is_min:false (fun a -> a.Mode.uncertainty_setup);
          uncertainty_hold = field ~is_min:false (fun a -> a.Mode.uncertainty_hold);
          transition_min = field ~is_min:true (fun a -> a.Mode.transition_min);
          transition_max = field ~is_min:false (fun a -> a.Mode.transition_max);
          propagated = List.exists (fun a -> a.Mode.propagated) contributions;
        } ))
    (Conflict_key.merged_clocks keys)

(* ------------------------------------------------------------------ *)
(* 3.1.3 Union of external delays                                      *)

let union_io_delays modes clock_map =
  let acc = ref [] in
  List.iter
    (fun (m : Mode.t) ->
      List.iter
        (fun (d : Mode.io_delay) ->
          let d =
            {
              d with
              Mode.iod_clock =
                Option.map
                  (fun c ->
                    match Hashtbl.find_opt clock_map (m.Mode.mode_name, c) with
                    | Some mc -> mc
                    | None -> c)
                  d.Mode.iod_clock;
            }
          in
          if not (List.exists (Mode.io_delay_equal d) !acc) then acc := d :: !acc)
        m.Mode.io_delays)
    modes;
  (* Mark every delay after the first on a (pin, direction) as -add_delay. *)
  let seen = Hashtbl.create 32 in
  List.rev_map
    (fun (d : Mode.io_delay) ->
      let k = d.Mode.iod_pin, d.Mode.iod_input in
      let first = not (Hashtbl.mem seen k) in
      Hashtbl.replace seen k ();
      { d with Mode.iod_add = not first })
    !acc
  |> List.rev

(* ------------------------------------------------------------------ *)
(* 3.1.4 Intersection of case analysis                                 *)

let intersect_cases modes =
  match modes with
  | [] -> [], []
  | _ :: _ ->
    let kept = ref [] and dropped = ref [] in
    let all_pins =
      List.concat_map (fun (m : Mode.t) -> List.map fst m.Mode.cases) modes
      |> List.sort_uniq compare
    in
    List.iter
      (fun pin ->
        let values =
          List.map (fun (m : Mode.t) -> m.Mode.mode_name, Mode.case_value m pin) modes
        in
        let present = List.filter_map (fun (_, v) -> v) values in
        let everywhere = List.for_all (fun (_, v) -> v <> None) values in
        match present with
        | v0 :: _ when everywhere && List.for_all (Bool.equal v0) present ->
          kept := (pin, v0) :: !kept
        | _ ->
          List.iter
            (fun (mn, v) ->
              match v with
              | Some v -> dropped := (mn, pin, v) :: !dropped
              | None -> ())
            values)
      all_pins;
    List.rev !kept, List.rev !dropped

(* ------------------------------------------------------------------ *)
(* 3.1.5 Intersection of disable_timing                                *)

let disable_equal a b =
  match a, b with
  | Mode.Dis_pin p, Mode.Dis_pin q -> p = q
  | Mode.Dis_inst (i, f, t), Mode.Dis_inst (j, g, u) -> i = j && f = g && t = u
  | Mode.Dis_pin _, Mode.Dis_inst _ | Mode.Dis_inst _, Mode.Dis_pin _ -> false

let intersect_disables modes =
  match modes with
  | [] -> []
  | (first : Mode.t) :: rest ->
    List.filter
      (fun d ->
        List.for_all
          (fun (m : Mode.t) ->
            List.exists (disable_equal d) m.Mode.disables)
          rest)
      first.Mode.disables

(* ------------------------------------------------------------------ *)
(* 3.1.6 Drive and load constraints                                    *)

(* The merged value per (kind, pin, minmax) is the maximum;
   {!Conflict_key.conflicts} vetoes a missing or out-of-tolerance one. *)
let merge_envs keys =
  List.filter_map
    (fun ((kind, pin, minmax) as ek) ->
      match
        List.concat_map
          (fun mb -> Conflict_key.env_values mb ek)
          (Conflict_key.members keys)
      with
      | [] -> None
      | v0 :: rest ->
        Some
          {
            Mode.envc_kind = kind;
            envc_pin = pin;
            envc_minmax = minmax;
            envc_value = List.fold_left Float.max v0 rest;
          })
    (Conflict_key.env_keys keys)

(* ------------------------------------------------------------------ *)
(* 3.1.7 Clock exclusivity                                             *)

let derive_exclusivity modes clock_map merged_clocks =
  (* Pairs of merged clocks that coexist in at least one individual
     mode. *)
  let coexist = Hashtbl.create 64 in
  List.iter
    (fun (m : Mode.t) ->
      let mapped =
        List.filter_map
          (fun (c : Mode.clock) ->
            Hashtbl.find_opt clock_map (m.Mode.mode_name, c.Mode.clk_name))
          m.Mode.clocks
      in
      List.iter
        (fun a ->
          List.iter
            (fun b -> if a <> b then Hashtbl.replace coexist (a, b) ())
            mapped)
        mapped)
    modes;
  let names = List.map (fun c -> c.Mode.clk_name) merged_clocks in
  let groups = ref [] in
  let rec pairs = function
    | [] -> ()
    | a :: rest ->
      List.iter
        (fun b ->
          if not (Hashtbl.mem coexist (a, b)) then
            groups :=
              {
                Mode.grp_kind = Mm_sdc.Ast.Physically_exclusive;
                grp_name = Some (Printf.sprintf "%s_x_%s" a b);
                grp_clocks = [ [ a ]; [ b ] ];
              }
              :: !groups)
        rest;
      pairs rest
  in
  pairs names;
  List.rev !groups

(* Also merge the clock groups the individual modes already carry:
   keep a group when every mode containing all of its clocks has it. *)
let inherit_groups modes clock_map =
  List.concat_map
    (fun (m : Mode.t) ->
      List.map
        (fun (g : Mode.clock_group) ->
          {
            g with
            Mode.grp_clocks =
              List.map
                (List.map (fun c ->
                     match Hashtbl.find_opt clock_map (m.Mode.mode_name, c) with
                     | Some mc -> mc
                     | None -> c))
                g.Mode.grp_clocks;
          })
        m.Mode.groups)
    modes
  |> List.sort_uniq compare

(* ------------------------------------------------------------------ *)
(* 3.1.9 / 3.1.10 Exceptions                                           *)

let rename_exc_points clock_map mode_name (e : Mode.exc) =
  let rename_point = function
    | Mode.P_clock c -> (
      match Hashtbl.find_opt clock_map (mode_name, c) with
      | Some mc -> Mode.P_clock mc
      | None -> Mode.P_clock c)
    | (Mode.P_pin _ | Mode.P_inst _) as p -> p
  in
  {
    e with
    Mode.exc_from = Option.map (List.map rename_point) e.Mode.exc_from;
    exc_to = Option.map (List.map rename_point) e.Mode.exc_to;
  }

let clocks_of_points points =
  List.filter_map (function Mode.P_clock c -> Some c | Mode.P_pin _ | Mode.P_inst _ -> None) points

let merge_exceptions ~ctx_of ~uniquify keys clock_map =
  let added = ref [] and dropped = ref [] and uniquified = ref [] in
  let add e = if not (List.exists (Mode.exc_equal e) !added) then added := e :: !added in
  List.iter
    (fun mb ->
      let m = Conflict_key.member_mode mb in
      List.iter
        (fun ((orig : Mode.exc), ek) ->
          let e = rename_exc_points clock_map m.Mode.mode_name orig in
          if Conflict_key.in_all keys ek then add e
          else if Conflict_key.unsafe ~uniquify ~ctx_of keys mb (orig, ek) then
            (* A mode-local false path is dropped; any other exception
               is a conflict ({!Conflict_key.conflicts}). *)
            dropped := (m.Mode.mode_name, e) :: !dropped
          else begin
            (* 3.1.10: uniquify by restricting to the -from clocks, or
               else to this mode's clocks, demoting any from-pins to a
               leading -through group (the paper's MCP1 -> MCP1'
               rewrite). *)
            let from_clocks =
              match e.Mode.exc_from with Some pts -> clocks_of_points pts | None -> []
            in
            let e' =
              if from_clocks <> [] then e
              else begin
                let mode_clocks =
                  List.filter_map
                    (fun (c : Mode.clock) ->
                      Hashtbl.find_opt clock_map (m.Mode.mode_name, c.Mode.clk_name))
                    m.Mode.clocks
                  |> List.sort_uniq String.compare
                in
                let from_pins =
                  match e.Mode.exc_from with
                  | Some pts -> Conflict_key.pins_of_points m.Mode.design pts
                  | None -> []
                in
                {
                  e with
                  Mode.exc_from =
                    Some (List.map (fun c -> Mode.P_clock c) mode_clocks);
                  exc_through =
                    (if from_pins = [] then e.Mode.exc_through
                     else [ from_pins ] @ e.Mode.exc_through);
                }
              end
            in
            if not (Mode.exc_equal e e') then
              uniquified := (m.Mode.mode_name, e') :: !uniquified;
            add e'
          end)
        (Conflict_key.member_excs mb))
    (Conflict_key.members keys);
  List.rev !added, List.rev !dropped, List.rev !uniquified

(* ------------------------------------------------------------------ *)
(* 3.1.8 Clock refinement                                              *)

let clock_refinement ~max_iters ~ctx_cache modes ctxs clock_map merged0 =
  let inferred_senses = ref [] in
  let rec go merged iter =
    if iter >= max_iters then merged, None
    else begin
      let ctx_m = Ctx_cache.build ctx_cache merged in
      let g = ctx_m.Context.graph and clocks_m = ctx_m.Context.clocks in
      (* Descending (pin, clock) order: the merged SDC lists the
         inferred senses that way. *)
      let new_senses =
        List.rev
          (Clock_prop.extra_frontier clocks_m g
             ~through:(fun aid ->
               Mm_timing.Const_prop.enabled ctx_m.Context.consts aid
               && Tgraph.arc_kind g aid <> Tgraph.Launch)
             ~merged:(Clock_prop.mask_at clocks_m)
             (List.map2
                (fun (m : Mode.t) (ctx_i : Context.t) ->
                  ( ctx_i.Context.clocks,
                    (fun c -> Hashtbl.find_opt clock_map (m.Mode.mode_name, c)),
                    Clock_prop.mask_at ctx_i.Context.clocks ))
                modes ctxs))
      in
      match new_senses with
      | [] -> merged, Some ctx_m
      | senses ->
        inferred_senses := senses @ !inferred_senses;
        let extra_senses =
          List.map
            (fun (c, pin) ->
              { Mode.cs_stop = true; cs_clocks = Some [ c ]; cs_pins = [ pin ] })
            senses
        in
        go { merged with Mode.senses = merged.Mode.senses @ extra_senses } (iter + 1)
    end
  in
  let refined, ctx = go merged0 0 in
  refined, ctx, List.rev !inferred_senses

(* Disable inference: pins case-constant in every individual mode whose
   case statements were dropped never toggle anywhere — disable them in
   the merged mode (the paper's CSTR1/CSTR2 of Constraint Set 3). *)
let infer_disables modes dropped_cases =
  let dropped_pins =
    List.map (fun (_, pin, _) -> pin) dropped_cases |> List.sort_uniq compare
  in
  List.filter
    (fun pin ->
      List.for_all
        (fun (m : Mode.t) -> Mode.case_value m pin <> None)
        modes)
    dropped_pins

(* Design-rule limits merge to the tightest (minimum) value per
   (kind, pin): a merged mode obeying the strictest individual limit is
   safe in every individual mode. *)
let merge_drcs modes =
  let tbl = Hashtbl.create 16 in
  let order = ref [] in
  List.iter
    (fun (m : Mode.t) ->
      List.iter
        (fun (l : Mode.drc_limit) ->
          let key = l.Mode.drcl_kind, l.Mode.drcl_pin in
          match Hashtbl.find_opt tbl key with
          | Some v -> Hashtbl.replace tbl key (Float.min v l.Mode.drcl_value)
          | None ->
            Hashtbl.replace tbl key l.Mode.drcl_value;
            order := key :: !order)
        m.Mode.drcs)
    modes;
  List.rev_map
    (fun ((kind, pin) as key) ->
      { Mode.drcl_kind = kind; drcl_pin = pin; drcl_value = Hashtbl.find tbl key })
    !order

(* ------------------------------------------------------------------ *)


let merge ?(tolerance = Toler.default) ?(max_refine_iters = 5) ?ctx_cache
    ?(uniquify = true) ~name modes =
  (match modes with [] -> invalid_arg "Prelim.merge: no modes" | _ :: _ -> ());
  Obs.with_span
    ~attrs:[ "merged", name; "modes", string_of_int (List.length modes) ]
    "merge.prelim"
  @@ fun () ->
  let design = (List.hd modes).Mode.design in
  (* Individual contexts, shared by uniquification and refinement. *)
  let ctx_cache =
    match ctx_cache with Some c -> c | None -> Ctx_cache.create ()
  in
  let ctx_of (m : Mode.t) = Ctx_cache.find ctx_cache m in
  let keys = Conflict_key.merge (List.map Conflict_key.of_mode modes) in
  let conflicts =
    List.map Conflict_key.reason_text
      (Conflict_key.conflicts ~uniquify ~tolerance ~ctx_of keys)
  in
  let merged_clocks, clock_map = union_clocks keys in
  let attrs = merge_attrs keys in
  let io_delays = union_io_delays modes clock_map in
  let cases, dropped_cases = intersect_cases modes in
  let disables = intersect_disables modes in
  let envs = merge_envs keys in
  let derived_groups = derive_exclusivity modes clock_map merged_clocks in
  let groups = derived_groups @ inherit_groups modes clock_map in
  let exceptions, dropped_exceptions, uniquified =
    merge_exceptions ~ctx_of ~uniquify keys clock_map
  in
  let inferred_disables = infer_disables modes dropped_cases in
  let merged0 =
    {
      Mode.mode_name = name;
      design;
      clocks = merged_clocks;
      attrs;
      io_delays;
      cases;
      disables = disables @ List.map (fun p -> Mode.Dis_pin p) inferred_disables;
      exceptions;
      groups;
      senses = [];
      envs;
      drcs = merge_drcs modes;
    }
  in
  let ctxs = List.map ctx_of modes in
  let merged, merged_ctx, inferred_senses =
    clock_refinement ~max_iters:max_refine_iters ~ctx_cache modes ctxs
      clock_map merged0
  in
  Metrics.incr ~by:(List.length uniquified) "prelim.exceptions_uniquified";
  Metrics.incr ~by:(List.length dropped_exceptions) "prelim.exceptions_dropped";
  Metrics.incr ~by:(List.length conflicts) "prelim.conflicts";
  {
    merged;
    merged_ctx;
    clock_map;
    dropped_cases;
    dropped_exceptions;
    uniquified;
    inferred_disables;
    inferred_senses;
    derived_groups;
    conflicts;
  }
