module Design = Mm_netlist.Design
module Mode = Mm_sdc.Mode
module Ast = Mm_sdc.Ast
module Toler = Mm_util.Toler
module Context = Mm_timing.Context
module Clock_prop = Mm_timing.Clock_prop

type point =
  | Pin of Design.pin_id
  | Inst of Design.inst_id
  | Clock of string  (* the Mode.clock_key of a clock *)
  | Name of string  (* a clock name the mode does not define *)

type exc_key = {
  kind : Mode.exc_kind;
  setup : bool;
  hold : bool;
  from_ : point list option;
  from_edge : Mode.edge_sel;
  through : Design.pin_id list list;
  to_ : point list option;
  to_edge : Mode.edge_sel;
}

type env_key = Ast.env_kind * Design.pin_id * Ast.minmax

type t = {
  mode : Mode.t;
  clocks : (string * Mode.clock) list;  (* (clock_key, clock), definition order *)
  key_of_name : (string, string) Hashtbl.t;
  attrs : (string, Mode.clock_attr list) Hashtbl.t;
  env_keys : env_key list;  (* sorted, distinct *)
  envs : (env_key, float list) Hashtbl.t;
  excs : (Mode.exc * exc_key) list;
  exc_set : (exc_key, unit) Hashtbl.t;
  undefined : string list;  (* clock names the exceptions use, undefined here *)
}

let mode k = k.mode

(* The clock key a clock name maps to. Names are unique in a resolved
   mode; for a hand-built mode that repeats one, the last definition
   wins, as in the merged clock map. *)
let mapped_key k (c : Mode.clock) = Hashtbl.find k.key_of_name c.Mode.clk_name

let canon_points point =
  Option.map (fun pts -> List.sort_uniq compare (List.map point pts))

let exc_key point (e : Mode.exc) =
  {
    kind = e.Mode.exc_kind;
    setup = e.Mode.exc_setup;
    hold = e.Mode.exc_hold;
    from_ = canon_points point e.Mode.exc_from;
    from_edge = e.Mode.exc_from_edge;
    through = List.map (List.sort_uniq compare) e.Mode.exc_through;
    to_ = canon_points point e.Mode.exc_to;
    to_edge = e.Mode.exc_to_edge;
  }

let set_of excs =
  let set = Hashtbl.create (max 1 (List.length excs)) in
  List.iter (fun (_, ek) -> Hashtbl.replace set ek ()) excs;
  set

(* Table [key -> values] from [(key, value)] items, values in item
   order. *)
let group items =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (key, v) ->
      Hashtbl.replace tbl key
        (v :: Option.value (Hashtbl.find_opt tbl key) ~default:[]))
    (List.rev items);
  tbl

let of_mode (m : Mode.t) =
  let key_of_name = Hashtbl.create 8 in
  let clocks =
    List.map
      (fun (c : Mode.clock) ->
        let ck = Mode.clock_key c in
        Hashtbl.replace key_of_name c.Mode.clk_name ck;
        ck, c)
      m.Mode.clocks
  in
  let attrs =
    group
      (List.map
         (fun (c : Mode.clock) ->
           ( Hashtbl.find key_of_name c.Mode.clk_name,
             Mode.attr_of_clock m c.Mode.clk_name ))
         m.Mode.clocks)
  in
  let env_items =
    List.map
      (fun (e : Mode.env_constraint) ->
        (e.Mode.envc_kind, e.Mode.envc_pin, e.Mode.envc_minmax), e.Mode.envc_value)
      m.Mode.envs
  in
  let undefined = ref [] in
  let point = function
    | Mode.P_pin p -> Pin p
    | Mode.P_inst i -> Inst i
    | Mode.P_clock c -> (
      match Hashtbl.find_opt key_of_name c with
      | Some ck -> Clock ck
      | None ->
        undefined := c :: !undefined;
        Name c)
  in
  let excs = List.map (fun e -> e, exc_key point e) m.Mode.exceptions in
  {
    mode = m;
    clocks;
    key_of_name;
    attrs;
    env_keys = List.sort_uniq compare (List.map fst env_items);
    envs = group env_items;
    excs;
    exc_set = set_of excs;
    undefined = List.sort_uniq String.compare !undefined;
  }

(* ------------------------------------------------------------------ *)
(* The keys of the modes being merged                                  *)

type member = {
  key : t;
  m_excs : (Mode.exc * exc_key) list;
  m_set : (exc_key, unit) Hashtbl.t;
}

type merge = {
  members : member list;
  merged_clocks : (string * Mode.clock) list;
  name_of_key : (string, string) Hashtbl.t;
}

(* One merged clock per distinct clock key, in order of first
   appearance, named after its first clock with a [_1], [_2], ...
   suffix when that name is taken (paper 3.1.1).

   An exception keeps a clock name its mode does not define; renamed
   into the merged mode, such a name denotes the merged clock that
   carries it, if any. Only then are the members' exception keys
   rebuilt with that clock's key; otherwise each mode's own keys
   serve. *)
let merge keys =
  let name_of_key = Hashtbl.create 16 and key_of_merged = Hashtbl.create 16 in
  let merged_clocks = ref [] in
  let unique_name base =
    if not (Hashtbl.mem key_of_merged base) then base
    else begin
      let rec go i =
        let cand = Printf.sprintf "%s_%d" base i in
        if Hashtbl.mem key_of_merged cand then go (i + 1) else cand
      in
      go 1
    end
  in
  List.iter
    (fun k ->
      List.iter
        (fun (ck, (c : Mode.clock)) ->
          if not (Hashtbl.mem name_of_key ck) then begin
            let name = unique_name c.Mode.clk_name in
            Hashtbl.replace name_of_key ck name;
            Hashtbl.replace key_of_merged name ck;
            merged_clocks := (ck, { c with Mode.clk_name = name }) :: !merged_clocks
          end)
        k.clocks)
    keys;
  let captured k = List.exists (Hashtbl.mem key_of_merged) k.undefined in
  let members =
    if not (List.exists captured keys) then
      List.map (fun k -> { key = k; m_excs = k.excs; m_set = k.exc_set }) keys
    else begin
      let point = function
        | Name c as p -> (
          match Hashtbl.find_opt key_of_merged c with
          | Some ck -> Clock ck
          | None -> p)
        | (Pin _ | Inst _ | Clock _) as p -> p
      in
      let resolve ek =
        {
          ek with
          from_ = canon_points point ek.from_;
          to_ = canon_points point ek.to_;
        }
      in
      List.map
        (fun k ->
          let m_excs = List.map (fun (e, ek) -> e, resolve ek) k.excs in
          { key = k; m_excs; m_set = set_of m_excs })
        keys
    end
  in
  { members; merged_clocks = List.rev !merged_clocks; name_of_key }

let members t = t.members
let member_mode mb = mb.key.mode
let member_excs mb = mb.m_excs
let merged_clocks t = t.merged_clocks
let merged_name t ck = Hashtbl.find t.name_of_key ck
let member_clocks mb = mb.key.clocks

let attr_contributions t ck =
  List.concat_map
    (fun mb -> Option.value (Hashtbl.find_opt mb.key.attrs ck) ~default:[])
    t.members

let env_keys t =
  List.sort_uniq compare (List.concat_map (fun mb -> mb.key.env_keys) t.members)

let env_values mb ek = Option.value (Hashtbl.find_opt mb.key.envs ek) ~default:[]

(* ------------------------------------------------------------------ *)
(* Exceptions                                                          *)

(* [Mode.exc_equal] compares delays with [=], so an exception with a
   NaN delay equals no exception, itself included. *)
let comparable ek =
  match ek.kind with
  | Mode.Min_delay v | Mode.Max_delay v -> not (Float.is_nan v)
  | Mode.False_path | Mode.Multicycle _ -> true

let has mb ek = comparable ek && Hashtbl.mem mb.m_set ek
let in_all t ek = List.for_all (fun mb -> has mb ek) t.members

let lacking t mb ek =
  let name = mb.key.mode.Mode.mode_name in
  List.filter
    (fun mb' ->
      (not (String.equal mb'.key.mode.Mode.mode_name name)) && not (has mb' ek))
    t.members

let pins_of_points design points =
  List.concat_map
    (function
      | Mode.P_pin p -> [ p ]
      | Mode.P_clock _ -> []
      | Mode.P_inst i -> (
        let cell = Design.inst_cell design i in
        match cell.Mm_netlist.Lib_cell.seq with
        | Some seq ->
          Design.inst_pin design i seq.Mm_netlist.Lib_cell.clock_pin
          :: List.map (Design.inst_pin design i) seq.Mm_netlist.Lib_cell.q_pins
        | None -> []))
    points

(* Can an exception restricted to [restriction] wrongly constrain
   paths of [mb']? Conservatively: yes when one of [mb']'s clocks is in
   the restriction — unless the exception's from-pins receive none of
   those clocks in [mb']'s clock propagation. *)
let unsafe_for ~ctx_of restriction from_pins mb' =
  let local_clocks =
    List.filter_map
      (fun (c : Mode.clock) ->
        if List.mem (Clock (mapped_key mb'.key c)) restriction then
          Some c.Mode.clk_name
        else None)
      mb'.key.mode.Mode.clocks
  in
  if local_clocks = [] then false
  else if from_pins = [] then true
  else begin
    let ctx : Context.t = ctx_of mb'.key.mode in
    List.exists
      (fun pin ->
        List.exists
          (fun lc ->
            match Clock_prop.clock_index ctx.Context.clocks lc with
            | Some i -> Clock_prop.has_clock ctx.Context.clocks pin i
            | None -> false)
          local_clocks)
      from_pins
  end

(* Paper 3.1.10: an exception of [mb] that some other mode lacks is
   uniquified by restricting it to its -from clocks, or else to all of
   [mb]'s clocks. That is unsafe when uniquification is off, when a
   pin-based -rise_from/-fall_from would lose its edge in the
   demote-to-through rewrite, or when the restriction reaches a mode
   that lacks the exception. *)
let unsafe ~uniquify ~ctx_of t mb ((e : Mode.exc), ek) =
  let from_clocks =
    match ek.from_ with
    | Some pts ->
      List.filter (function Clock _ | Name _ -> true | Pin _ | Inst _ -> false) pts
    | None -> []
  in
  let from_pins =
    match e.Mode.exc_from with
    | Some pts -> pins_of_points mb.key.mode.Mode.design pts
    | None -> []
  in
  (not uniquify)
  || (e.Mode.exc_from_edge <> Mode.Any_edge && from_pins <> [] && from_clocks = [])
  ||
  let restriction =
    if from_clocks <> [] then from_clocks
    else
      List.map
        (fun (c : Mode.clock) -> Clock (mapped_key mb.key c))
        mb.key.mode.Mode.clocks
  in
  List.exists (unsafe_for ~ctx_of restriction from_pins) (lacking t mb ek)

(* ------------------------------------------------------------------ *)
(* Conflicts                                                           *)

let attr_fields =
  [
    "source latency min", (fun a -> a.Mode.src_latency_min);
    "source latency max", (fun a -> a.Mode.src_latency_max);
    "network latency min", (fun a -> a.Mode.net_latency_min);
    "network latency max", (fun a -> a.Mode.net_latency_max);
    "setup uncertainty", (fun a -> a.Mode.uncertainty_setup);
    "hold uncertainty", (fun a -> a.Mode.uncertainty_hold);
    "transition min", (fun a -> a.Mode.transition_min);
    "transition max", (fun a -> a.Mode.transition_max);
  ]

type reason =
  | Attr of { clock : string; what : string; v0 : float; v : float }
  | Env_missing of { design : Design.t; pin : Design.pin_id }
  | Env_value of {
      design : Design.t;
      pin : Design.pin_id;
      v0 : float;
      v : float;
    }
  | Not_uniquifiable of string  (* the mode *)

let reason_text = function
  | Attr { clock; what; v0; v } ->
    Printf.sprintf "clock %s %s: values %g and %g beyond tolerance" clock what
      v0 v
  | Env_missing { design; pin } ->
    Printf.sprintf "environment constraint on %s missing in some modes"
      (Design.pin_name design pin)
  | Env_value { design; pin; v0; v } ->
    Printf.sprintf "environment constraint on %s: %g vs %g beyond tolerance"
      (Design.pin_name design pin) v0 v
  | Not_uniquifiable mode ->
    Printf.sprintf "mode %s: non-false-path exception cannot be uniquified"
      mode

let conflicts ?(uniquify = true) ~tolerance ~ctx_of t =
  let acc = ref [] in
  let add r = acc := r :: !acc in
  (* 3.1.2: a merged clock's attribute values must agree within
     tolerance with the first mode's value. *)
  List.iter
    (fun (ck, (mc : Mode.clock)) ->
      match attr_contributions t ck with
      | [] | [ _ ] -> ()
      | contributions ->
        List.iter
          (fun (what, get) ->
            match List.filter_map get contributions with
            | [] -> ()
            | v0 :: rest ->
              List.iter
                (fun v ->
                  if not (Toler.within tolerance v0 v) then
                    add (Attr { clock = mc.Mode.clk_name; what; v0; v }))
                rest)
          attr_fields)
    t.merged_clocks;
  (* 3.1.6: a drive/load constraint must be set in every mode, within
     tolerance of the first value. *)
  (match t.members with
  | [] -> ()
  | first :: _ ->
    let design = first.key.mode.Mode.design in
    List.iter
      (fun ((_, pin, _) as ek) ->
        let values = List.map (fun mb -> env_values mb ek) t.members in
        match List.concat values with
        | [] -> ()
        | v0 :: _ as present ->
          if List.exists (fun vs -> vs = []) values then
            add (Env_missing { design; pin });
          List.iter
            (fun v ->
              if not (Toler.within tolerance v0 v) then
                add (Env_value { design; pin; v0; v }))
            present)
      (env_keys t));
  (* 3.1.10: a mode-local false path that cannot be uniquified is
     dropped; any other exception makes the modes unmergeable. *)
  List.iter
    (fun mb ->
      List.iter
        (fun ((e : Mode.exc), ek) ->
          match e.Mode.exc_kind with
          | Mode.False_path -> ()
          | Mode.Multicycle _ | Mode.Min_delay _ | Mode.Max_delay _ ->
            if (not (in_all t ek)) && unsafe ~uniquify ~ctx_of t mb (e, ek) then
              add (Not_uniquifiable mb.key.mode.Mode.mode_name))
        mb.m_excs)
    t.members;
  List.rev !acc
