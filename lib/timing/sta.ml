module Design = Mm_netlist.Design
module Lib_cell = Mm_netlist.Lib_cell
module Mode = Mm_sdc.Mode
module Obs = Mm_util.Obs
module Metrics = Mm_util.Metrics

type endpoint_slack = {
  es_pin : Design.pin_id;
  es_setup : float option;
  es_hold : float option;
  es_capture_period : float option;
}

type drc_violation = {
  drv_pin : Design.pin_id;
  drv_kind : Mm_sdc.Ast.drc_kind;
  drv_limit : float;
  drv_actual : float;
}

type report = {
  rep_mode : string;
  rep_slacks : endpoint_slack list;
  rep_drc : drc_violation list;
  rep_n_tags : int;
  rep_n_checked : int;
  rep_runtime : float;
}

(* ------------------------------------------------------------------ *)
(* The analysed view of a mode: its context plus the timing data only
   STA reads — arc delays, pin loads and the insertion delays of the
   propagated clocks. Built once per analysed mode and shared across
   corners (corners scale the delays, they do not change them).        *)

(* The terms of a relationship's checks that depend only on its launch
   clock, capture clock and capture edge. *)
type pair_terms = {
  capture : Mode.clock;
  launch_edge : float;
      (* The edge offset embedded in the tag's arrival: the launching
         register's active edge, recovered from the startpoint;
         approximated by the rising edge when the tag came from an
         input delay. *)
  sep : float;  (* single-cycle setup separation *)
  unc_setup : float;
  unc_hold : float;
}

type view = {
  ctx : Context.t;
  delays : Tgraph.delays;
  clock_arrivals : Tag.Store.t option;  (* keyed by clock index *)
  clocks : Mode.clock array;  (* by clock index *)
  attrs : Mode.clock_attr array;  (* by clock index *)
  terms : pair_terms array;
      (* by (launch, capture, capture edge): [term_index] *)
}

let edge_time (c : Mode.clock) (edge : Lib_cell.edge) =
  let r, f = c.waveform in
  match edge with Lib_cell.Rising -> r | Lib_cell.Falling -> f

(* Minimal positive separation from a launch edge to a capture edge,
   scanning launch edges over a bounded window (covers rationally
   related periods; irrational ratios fall back to the best found). *)
let setup_separation ~launch_period ~launch_edge ~capture_period ~capture_edge =
  if launch_period <= 0. || capture_period <= 0. then capture_period
  else begin
    let best = ref infinity in
    let eps = 1e-9 in
    for j = 0 to 63 do
      let le = launch_edge +. (float_of_int j *. launch_period) in
      let k = Float.round (Float.ceil ((le -. capture_edge +. eps) /. capture_period)) in
      let ce = capture_edge +. (k *. capture_period) in
      let sep = ce -. le in
      if sep > eps && sep < !best then best := sep
    done;
    if Float.is_finite !best then !best else capture_period
  end

(* The insertion delays of the propagated clocks: each clock swept from
   its sources over the clock network in topological order, min/max
   folded per (pin, clock). The network is Clock_prop's: enabled
   Comb/Net arcs, and a clock crosses an arc exactly when Clock_prop's
   final masks have it at both ends (a clock stopped at a pin never
   reaches its mask). Enabled arcs run forward in topological order
   (loop-breaking arcs are disabled), so a pin's arrivals are final
   when it is swept. Only propagated clocks are seeded, and a mode
   that seeds none gets no store. *)
let clock_arrivals (ctx : Context.t) (dl : Tgraph.delays) =
  let g = ctx.Context.graph and clocks = ctx.Context.clocks in
  let arrivals = lazy (Tag.Store.create (Tgraph.n_pins g)) in
  (* Seeds: every source pin the clock reaches (a cased or stopped
     source defines the clock but has it in no mask). *)
  List.iteri
    (fun ci (c : Mode.clock) ->
      let attr = Mode.attr_of_clock ctx.Context.mode c.Mode.clk_name in
      if attr.Mode.propagated then
        List.iter
          (fun src ->
            if
              Const_prop.pin_active ctx.Context.consts src
              && Clock_prop.has_clock clocks src ci
            then Tag.Store.add (Lazy.force arrivals) src ci 0. 0.)
          c.Mode.sources)
    ctx.Context.mode.Mode.clocks;
  if not (Lazy.is_val arrivals) then None
  else begin
    let arrivals = Lazy.force arrivals in
    Array.iter
      (fun pin ->
        if Tag.Store.has_tags arrivals pin then
          Tgraph.iter_out g pin (fun aid ->
              if
                Tgraph.arc_kind g aid <> Tgraph.Launch
                && Const_prop.enabled ctx.Context.consts aid
              then begin
                let dst = Tgraph.arc_dst g aid in
                let at_dst = Clock_prop.mask_at clocks dst in
                Tag.Store.iter arrivals pin (fun ci tmin tmax ->
                    if at_dst land (1 lsl ci) <> 0 then
                      Tag.Store.add arrivals dst ci
                        (tmin +. dl.Tgraph.dmin.(aid))
                        (tmax +. dl.Tgraph.dmax.(aid)))
              end))
      g.Tgraph.topo;
    Some arrivals
  end

let edge_index = function Lib_cell.Rising -> 0 | Lib_cell.Falling -> 1

let term_index v ~launch ~capture edge =
  (((launch * Array.length v.clocks) + capture) * 2) + edge_index edge

let pair_terms clocks attrs ci cj edge =
  let launch_clk = clocks.(ci) and capture_clk = clocks.(cj) in
  let launch_edge = edge_time launch_clk Lib_cell.Rising in
  let attr = attrs.(cj) in
  {
    capture = capture_clk;
    launch_edge;
    sep =
      setup_separation ~launch_period:launch_clk.Mode.period ~launch_edge
        ~capture_period:capture_clk.Mode.period
        ~capture_edge:(edge_time capture_clk edge);
    unc_setup = Option.value ~default:0. attr.Mode.uncertainty_setup;
    unc_hold = Option.value ~default:0. attr.Mode.uncertainty_hold;
  }

let view (ctx : Context.t) =
  let delays = Tgraph.delays ctx.Context.graph ctx.Context.mode in
  let n = Clock_prop.n_clocks ctx.Context.clocks in
  let clocks = Array.init n (Context.find_clock ctx) in
  let attrs =
    Array.map
      (fun (c : Mode.clock) ->
        Mode.attr_of_clock ctx.Context.mode c.Mode.clk_name)
      clocks
  in
  let terms =
    Array.init (n * n * 2) (fun i ->
        pair_terms clocks attrs (i / 2 / n) (i / 2 mod n)
          (if i mod 2 = 0 then Lib_cell.Rising else Lib_cell.Falling))
  in
  {
    ctx;
    delays;
    clock_arrivals = clock_arrivals ctx delays;
    clocks;
    attrs;
    terms;
  }

let clock_arrival v pin clk =
  Option.bind v.clock_arrivals (fun arrivals -> Tag.Store.find arrivals pin clk)

(* Design-rule checks against the wire-load model quantities: the
   capacitance a driver sees, and an RC transition estimate
   (drive resistance x load). *)
let drc_checks v =
  let ctx = v.ctx in
  let design = ctx.Context.design in
  let loads = v.delays.Tgraph.loads in
  List.filter_map
    (fun (l : Mode.drc_limit) ->
      let pin = l.Mode.drcl_pin in
      if loads.(pin) <= 0. then None
      else begin
        let actual =
          match l.Mode.drcl_kind with
          | Mm_sdc.Ast.Max_capacitance -> loads.(pin)
          | Mm_sdc.Ast.Max_transition -> (
            match Design.pin_owner design pin with
            | Design.Inst_pin (inst, _) ->
              (Design.inst_cell design inst).Mm_netlist.Lib_cell.drive_res
              *. loads.(pin)
            | Design.Port_pin _ -> 0.5 *. loads.(pin))
        in
        if actual > l.Mode.drcl_value then
          Some
            {
              drv_pin = pin;
              drv_kind = l.Mode.drcl_kind;
              drv_limit = l.Mode.drcl_value;
              drv_actual = actual;
            }
        else None
      end)
    ctx.Context.mode.Mode.drcs

(* Clock arrival (insertion delay) at [pin], excluding the edge time:
   source latency plus either the propagated network delay or the ideal
   network latency. *)
let clock_latency_at v ~clock_idx ~pin =
  let attr = v.attrs.(clock_idx) in
  let or0 = Option.value ~default:0. in
  let src_min = or0 attr.Mode.src_latency_min
  and src_max = or0 attr.Mode.src_latency_max in
  if attr.Mode.propagated then
    match clock_arrival v pin clock_idx with
    | Some (tmin, tmax) -> src_min +. tmin, src_max +. tmax
    | None -> src_min, src_max
  else
    src_min +. or0 attr.Mode.net_latency_min,
    src_max +. or0 attr.Mode.net_latency_max

(* ------------------------------------------------------------------ *)
(* Seeding, shared by the store engine and the reference oracle.       *)

let seed_tags v ~merge =
  let ctx = v.ctx in
  List.iter
    (fun (l : Tag.launch) ->
      let el = edge_time v.clocks.(l.launch_clock) l.launch_edge in
      let lmin, lmax =
        match l.input_delay with
        | Some v -> v, v
        | None -> clock_latency_at v ~clock_idx:l.launch_clock ~pin:l.launch_pin
      in
      Tag.seed ctx l (fun key ->
          merge l.launch_pin key (el +. lmin) (el +. lmax)))
    (Tag.all_launches ctx)

(* ------------------------------------------------------------------ *)

let propagate ?(corner = Corner.typical) ?scratch v =
  Mm_util.Chaos.hit "sta.propagate";
  let ctx = v.ctx and dl = v.delays in
  let g = ctx.Context.graph in
  let st =
    match scratch with
    | Some st ->
      Tag.Store.clear st;
      st
    | None -> Tag.Store.create (Tgraph.n_pins g)
  in
  seed_tags v ~merge:(Tag.Store.add st);
  (* Topological sweep over the arena. *)
  let swept = ref 0 in
  (* Coarse progress: one tracker unit per sweep block, not per pin —
     an atomic per pin would be measurable on million-pin arenas. *)
  let tick_every = 4096 in
  let blocks = (Tgraph.n_pins g + tick_every - 1) / tick_every in
  Mm_util.Progress.(add_total sta_pins blocks);
  let visited = ref 0 in
  (* On the way out, normal or not, tick the blocks this sweep
     registered but did not tick, so [done] reaches [total] once every
     sweep sharing the tracker has ended. *)
  Fun.protect
    ~finally:(fun () ->
      let rest = blocks - (!visited / tick_every) in
      if rest > 0 then Mm_util.Progress.(tick ~by:rest sta_pins))
  @@ fun () ->
  Array.iter
    (fun pin ->
      (* Cooperative cancellation point: the sweep dominates STA cost,
         so a blown budget must be observable from inside it. *)
      Mm_util.Govern.checkpoint ();
      incr visited;
      if !visited mod tick_every = 0 then Mm_util.Progress.(tick sta_pins);
      if Tag.Store.has_tags st pin then begin
        incr swept;
        (* The out arcs by index: no closure per pin. *)
        for k = g.Tgraph.out_row.(pin) to g.Tgraph.out_row.(pin + 1) - 1 do
          let aid = g.Tgraph.out_adj.(k) in
          if Tag.carries ctx aid then
            Tag.sweep st ctx.Context.excs (Tgraph.arc_unate g aid) ~src:pin
              ~dst:(Tgraph.arc_dst g aid)
              (dl.Tgraph.dmin.(aid) *. corner.Corner.derate_min)
              (dl.Tgraph.dmax.(aid) *. corner.Corner.derate_max)
        done
      end)
    g.Tgraph.topo;
  st, !swept

(* The per-pin Hashtbl engine the tag store replaced, kept as the
   differential-testing oracle for @sta-equiv: same seeds, same sweep,
   independent storage and merge bookkeeping, and its own test for the
   register clock pins data tags do not enter. *)
type tag_maps = (int, float * float) Hashtbl.t array

let propagate_reference ?(corner = Corner.typical) v : tag_maps * int =
  let ctx = v.ctx and dl = v.delays in
  let g = ctx.Context.graph in
  let n = Tgraph.n_pins g in
  let tags : tag_maps = Array.init n (fun _ -> Hashtbl.create 1) in
  let clock_pin = Array.make n false in
  List.iter
    (function
      | Tgraph.Sp_reg { sp_clock; sp_outputs = _ :: _; _ } ->
        clock_pin.(sp_clock) <- true
      | Tgraph.Sp_reg _ | Tgraph.Sp_port _ -> ())
    g.Tgraph.sk_startpoints;
  let n_tags = ref 0 in
  let merge pin key amin amax =
    match Hashtbl.find_opt tags.(pin) key with
    | None ->
      Hashtbl.replace tags.(pin) key (amin, amax);
      incr n_tags
    | Some (emin, emax) ->
      let nmin = Float.min emin amin and nmax = Float.max emax amax in
      if nmin < emin || nmax > emax then
        Hashtbl.replace tags.(pin) key (nmin, nmax)
  in
  seed_tags v ~merge;
  Array.iter
    (fun pin ->
      Mm_util.Govern.checkpoint ();
      if Hashtbl.length tags.(pin) > 0 then
        Tgraph.iter_out g pin (fun aid ->
            let dst = Tgraph.arc_dst g aid in
            if
              Const_prop.enabled ctx.Context.consts aid
              && (Tgraph.arc_kind g aid = Tgraph.Launch || not clock_pin.(dst))
            then begin
              let dmin = dl.Tgraph.dmin.(aid) *. corner.Corner.derate_min
              and dmax = dl.Tgraph.dmax.(aid) *. corner.Corner.derate_max in
              let unate = Tgraph.arc_unate g aid in
              Hashtbl.iter
                (fun key (amin, amax) ->
                  Tag.step ctx.Context.excs unate dst key (fun key' ->
                      merge dst key' (amin +. dmin) (amax +. dmax)))
                tags.(pin)
            end))
    g.Tgraph.topo;
  tags, !n_tags

(* ------------------------------------------------------------------ *)

(* [x] is worse than the worst so far, [cur]. *)
let worse cur x = match cur with None -> true | Some w -> x < w

(* Multicycle multipliers applicable to a matched exception list. *)
let mcp_multipliers excs =
  let setup_mult = ref 1 and hold_mult = ref 0 in
  List.iter
    (fun (e : Mode.exc) ->
      match e.exc_kind with
      | Mode.Multicycle { mult; _ } ->
        if e.exc_setup then setup_mult := max !setup_mult mult;
        if e.exc_hold && not e.exc_setup then hold_mult := max !hold_mult mult
      | Mode.False_path | Mode.Min_delay _ | Mode.Max_delay _ -> ())
    excs;
  !setup_mult, !hold_mult

(* The check phase, one routine for every reader: [f key amin amax
   capture setup hold] once per timing relationship at [ep] (tag [key]
   captured by clock [capture]), with the required time of its setup
   (max-path) check, slack [setup -. amax], and of its hold (min-path)
   check, slack [amin -. hold]; [None] where the relationship's
   exceptions leave that side unchecked. [iter_tags pin g] feeds every
   (key, amin, amax) at the pin to [g] — the phase is storage-agnostic
   so the store engine and any oracle can share it. *)
let iter_checks ~corner v iter_tags ep f =
  let ctx = v.ctx in
  let setup_margin, hold_margin =
    match ep with
    | Tgraph.Ep_reg { ep_setup; ep_hold; _ } ->
      ep_setup +. corner.Corner.extra_setup, ep_hold +. corner.Corner.extra_hold
    | Tgraph.Ep_port _ -> corner.Corner.extra_setup, corner.Corner.extra_hold
  in
  let capture_edge_kind =
    match ep with
    | Tgraph.Ep_reg { ep_edge; _ } -> ep_edge
    | Tgraph.Ep_port _ -> Lib_cell.Rising
  in
  (* Output-delay margins per capture clock for port endpoints. *)
  let out_delay_max capture =
    match ep with
    | Tgraph.Ep_reg _ -> 0.
    | Tgraph.Ep_port { ep_pin } ->
      List.fold_left
        (fun acc (d : Mode.io_delay) ->
          if
            (not d.iod_input) && d.iod_pin = ep_pin
            && d.iod_clock = Some capture
            && (d.iod_minmax = Mm_sdc.Ast.Max || d.iod_minmax = Mm_sdc.Ast.Both)
          then Float.max acc d.iod_value
          else acc)
        0. ctx.Context.mode.Mode.io_delays
  in
  let relationships = Context.fold_relationships ctx ep in
  iter_tags (Tgraph.endpoint_pin ep) (fun key amin amax ->
      let ci = Tag.clock key in
      relationships ci (Tag.state key) (Tag.edge key)
        (fun cj matched () ->
          let t =
            v.terms.(term_index v ~launch:ci ~capture:cj capture_edge_kind)
          in
          let period = t.capture.Mode.period in
          let setup_mult, hold_mult = mcp_multipliers matched in
          let sep = t.sep +. (float_of_int (setup_mult - 1) *. period) in
          let cap_lat_min, cap_lat_max =
            match ep with
            | Tgraph.Ep_reg { ep_clock; _ } ->
              clock_latency_at v ~clock_idx:cj ~pin:ep_clock
            | Tgraph.Ep_port _ -> 0., 0.
          in
          let setup =
            match Constraint_state.of_exceptions ~setup:true matched with
            | Constraint_state.False_path | Constraint_state.Disabled
            | Constraint_state.Min_delay_bound _ -> None
            | Constraint_state.Max_delay_bound v -> Some v
            | Constraint_state.Valid | Constraint_state.Multicycle _ ->
              (* [amax] contains the launch edge, so the required time
                 carries it too. *)
              Some
                (t.launch_edge +. sep +. cap_lat_min -. setup_margin
               -. t.unc_setup -. out_delay_max t.capture.Mode.clk_name)
          and hold =
            match Constraint_state.of_exceptions ~setup:false matched with
            | Constraint_state.False_path | Constraint_state.Disabled
            | Constraint_state.Max_delay_bound _ -> None
            | Constraint_state.Min_delay_bound v -> Some v
            | Constraint_state.Valid | Constraint_state.Multicycle _ ->
              let hold_edge =
                sep -. period -. (float_of_int hold_mult *. period)
              in
              Some
                (t.launch_edge +. hold_edge +. cap_lat_max +. hold_margin
               +. t.unc_hold)
          in
          f key amin amax t.capture setup hold)
        ())

let slacks_of ?(corner = Corner.typical) v iter_tags n_checked =
  List.map
    (fun ep ->
      let setup = ref None and hold = ref None and period = ref None in
      iter_checks ~corner v iter_tags ep (fun _ amin amax capture s h ->
          incr n_checked;
          Option.iter
            (fun r ->
              if worse !setup (r -. amax) then begin
                setup := Some (r -. amax);
                period := Some capture.Mode.period
              end)
            s;
          Option.iter
            (fun r -> if worse !hold (amin -. r) then hold := Some (amin -. r))
            h);
      {
        es_pin = Tgraph.endpoint_pin ep;
        es_setup = !setup;
        es_hold = !hold;
        es_capture_period = !period;
      })
    v.ctx.Context.graph.Tgraph.sk_endpoints

let slacks_with ?corner v iter_tags = slacks_of ?corner v iter_tags (ref 0)

(* [view] runs inside the timed span: a report's runtime includes
   deriving the mode's delays, as it includes building its context. *)
let run ~name ~corner ?scratch view =
  let (slacks, drc, n_tags, n_checked), runtime =
    Obs.timed ~attrs:[ "mode", name ] "sta.analyze" @@ fun () ->
    let v = view () in
    let st, swept =
      Obs.with_span "sta.propagate" (fun () -> propagate ~corner ?scratch v)
    in
    let n_checked = ref 0 in
    let slacks =
      Obs.with_span "sta.check" @@ fun () ->
      slacks_of ~corner v (Tag.Store.iter st) n_checked
    in
    Metrics.incr ~by:(Tag.Store.length st) "sta.tags_propagated";
    Metrics.incr ~by:swept "sta.pins_repropagated";
    Metrics.incr ~by:!n_checked "sta.endpoints_checked";
    Obs.record_gc_metrics ();
    slacks, drc_checks v, Tag.Store.length st, !n_checked
  in
  {
    rep_mode = name;
    rep_slacks = slacks;
    rep_drc = drc;
    rep_n_tags = n_tags;
    rep_n_checked = n_checked;
    rep_runtime = runtime;
  }

let analyze ?ctx ?(corner = Corner.typical) ?scratch design mode =
  run ~name:mode.Mode.mode_name ~corner ?scratch (fun () ->
      view (match ctx with Some c -> c | None -> Context.create design mode))

let analyze_view ?(corner = Corner.typical) ?scratch v =
  run ~name:v.ctx.Context.mode.Mode.mode_name ~corner ?scratch (fun () -> v)

(* Per-mode STA is embarrassingly parallel: each task builds its own
   context, view and tag store over the shared compiled graph, so tasks
   share nothing mutable but the (immutable) design and arena. Without
   a pool the modes run in turn through one store. *)
let analyze_many ?corner ?pool design modes =
  match pool with
  | Some pool -> Mm_util.Pool.map pool (analyze ?corner design) modes
  | None ->
    let scratch = Tag.Store.create (Design.n_pins design) in
    List.map (analyze ?corner ~scratch design) modes

let analyze_scenarios design ~modes ~corners =
  let scratch = Tag.Store.create (Design.n_pins design) in
  List.concat_map
    (fun (m : Mode.t) ->
      let v = view (Context.create design m) in
      List.map
        (fun (c : Corner.t) ->
          ( m.Mode.mode_name,
            c.Corner.corner_name,
            analyze_view ~corner:c ~scratch v ))
        corners)
    modes

(* ------------------------------------------------------------------ *)
(* Path reporting                                                      *)

type path_step = {
  st_pin : Design.pin_id;
  st_incr : float;
  st_arrival : float;
}

type path = {
  pth_endpoint : Design.pin_id;
  pth_launch_clock : string;
  pth_capture_clock : string;
  pth_arrival : float;
  pth_required : float;
  pth_slack : float;
  pth_steps : path_step list;
}

(* Walk backwards through the tag store, matching arrival arithmetic to
   recover the worst path's arcs. *)
let backtrack v ~corner st ep_pin key arrival =
  let ctx = v.ctx in
  let g = ctx.Context.graph in
  let eps = 1e-9 in
  let rec go pin key arrival acc =
    let pred =
      Tgraph.find_map_in g pin (fun aid ->
          if not (Tag.carries ctx aid) then None
          else begin
            let delay = v.delays.Tgraph.dmax.(aid) *. corner.Corner.derate_max in
            let src = Tgraph.arc_src g aid in
            let unate = Tgraph.arc_unate g aid in
            List.find_map
              (fun (key', _, amax') ->
                let steps_to_key = ref false in
                Tag.step ctx.Context.excs unate pin key' (fun k ->
                    if k = key then steps_to_key := true);
                if !steps_to_key && Float.abs (amax' +. delay -. arrival) < eps
                then Some (src, key', amax', delay)
                else None)
              (Tag.Store.tags st src)
          end)
    in
    match pred with
    | Some (src, key', arrival', delay) ->
      go src key' arrival'
        ({ st_pin = pin; st_incr = delay; st_arrival = arrival } :: acc)
    | None -> { st_pin = pin; st_incr = 0.; st_arrival = arrival } :: acc
  in
  go ep_pin key arrival []

let worst_paths ?ctx ?(corner = Corner.typical) ?(n = 3) design mode =
  let ctx = match ctx with Some c -> c | None -> Context.create design mode in
  let v = view ctx in
  let st, _ = propagate ~corner v in
  (* Every setup check, with its slack and its path report; only the
     [n] worst are traced. *)
  let candidates =
    List.concat_map
      (fun ep ->
        let ep_pin = Tgraph.endpoint_pin ep and acc = ref [] in
        iter_checks ~corner v (Tag.Store.iter st) ep
          (fun key _ amax capture setup _ ->
            Option.iter
              (fun required ->
                let path () =
                  {
                    pth_endpoint = ep_pin;
                    pth_launch_clock =
                      Clock_prop.clock_name ctx.Context.clocks (Tag.clock key);
                    pth_capture_clock = capture.Mode.clk_name;
                    pth_arrival = amax;
                    pth_required = required;
                    pth_slack = required -. amax;
                    pth_steps = backtrack v ~corner st ep_pin key amax;
                  }
                in
                acc := (required -. amax, path) :: !acc)
              setup);
        !acc)
      ctx.Context.graph.Tgraph.sk_endpoints
  in
  List.sort (fun (s1, _) (s2, _) -> Float.compare s1 s2) candidates
  |> List.filteri (fun i _ -> i < n)
  |> List.map (fun (_, path) -> path ())

let path_to_string design p =
  let buf = Buffer.create 512 in
  let out fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  (match p.pth_steps with
  | first :: _ -> out "Startpoint: %s\n" (Design.pin_name design first.st_pin)
  | [] -> ());
  out "Endpoint:   %s\n" (Design.pin_name design p.pth_endpoint);
  out "Launch clock: %s   Capture clock: %s\n" p.pth_launch_clock
    p.pth_capture_clock;
  out "  %-32s %8s %8s\n" "point" "incr" "path";
  List.iter
    (fun s ->
      out "  %-32s %8.3f %8.3f\n"
        (Design.pin_name design s.st_pin)
        s.st_incr s.st_arrival)
    p.pth_steps;
  out "  %-32s %8s %8.3f\n" "data arrival time" "" p.pth_arrival;
  out "  %-32s %8s %8.3f\n" "data required time" "" p.pth_required;
  out "  %-32s %8s %8.3f (%s)\n" "slack" "" p.pth_slack
    (if p.pth_slack >= 0. then "MET" else "VIOLATED");
  Buffer.contents buf

let worst_setup_by_endpoint rep =
  List.filter_map
    (fun es ->
      match es.es_setup with Some s -> Some (es.es_pin, s) | None -> None)
    rep.rep_slacks

let merge_worst reports =
  let table = Hashtbl.create 256 in
  List.iter
    (fun rep ->
      List.iter
        (fun es ->
          match es.es_setup with
          | None -> ()
          | Some s -> (
            let period = Option.value ~default:1. es.es_capture_period in
            match Hashtbl.find_opt table es.es_pin with
            | None -> Hashtbl.replace table es.es_pin (s, period)
            | Some (w, _) when s < w -> Hashtbl.replace table es.es_pin (s, period)
            | Some _ -> ()))
        rep.rep_slacks)
    reports;
  table

let conformity ~individual ~merged ~tolerance_frac =
  let ind = merge_worst individual and mrg = merge_worst merged in
  let total = ref 0 and ok = ref 0 in
  Hashtbl.iter
    (fun pin (si, period) ->
      incr total;
      match Hashtbl.find_opt mrg pin with
      | None -> () (* endpoint unconstrained in merged mode: non-conforming *)
      | Some (sm, _) ->
        if Float.abs (sm -. si) <= tolerance_frac *. period then incr ok)
    ind;
  (* Endpoints timed only in the merged mode also count against. *)
  Hashtbl.iter
    (fun pin _ -> if not (Hashtbl.mem ind pin) then incr total)
    mrg;
  if !total = 0 then 100. else 100. *. float_of_int !ok /. float_of_int !total
