module Mode = Mm_sdc.Mode

type key = int

(* Layout: (((state * 128) + clock + 1) * 4) + polarity code. *)
let pack clock state code = (((state * 128) + clock + 1) * 4) + code

let make ?(edge = Mode.Any_edge) clock state =
  pack clock state
    (match edge with
    | Mode.Any_edge -> 0
    | Mode.Rise_edge -> 1
    | Mode.Fall_edge -> 2)

let clock key = ((key / 4) mod 128) - 1
let state key = key / 4 / 128

let edge key =
  match key land 3 with
  | 1 -> Mode.Rise_edge
  | 2 -> Mode.Fall_edge
  | _ -> Mode.Any_edge

(* The key [key] becomes on an arc into [dst]. A rise or fall tag
   crossing a non-unate arc becomes two ([splits]): this key, the rise
   one, and the next, the fall one (codes 1 and 2). *)
let stepped excs (unate : Tgraph.unate) dst key =
  let code = key land 3 in
  let base = pack (clock key) (Excmatch.advance excs (state key) dst) 0 in
  match unate with
  | _ when code = 0 -> base
  | Tgraph.Positive -> base + code
  | Tgraph.Negative -> base + 3 - code
  | Tgraph.Non_unate -> base + 1

let splits (unate : Tgraph.unate) key =
  key land 3 <> 0 && unate = Tgraph.Non_unate

let step excs unate dst key f =
  let k = stepped excs unate dst key in
  f k;
  if splits unate key then f (k + 1)

(* No launch or cell arc ends at a register clock pin, so the test
   needs no arc kind. *)
let carries (ctx : Context.t) aid =
  let g = ctx.Context.graph in
  Const_prop.enabled ctx.Context.consts aid
  && Bytes.get g.Tgraph.clock_pins (Tgraph.arc_dst g aid) = '\000'

type launch = {
  launch_pin : Mm_netlist.Design.pin_id;
  launch_clock : int;
  launch_aliases : Mm_netlist.Design.pin_id list;
  launch_edge : Mm_netlist.Lib_cell.edge;
  input_delay : float option;
}

let launches (ctx : Context.t) = function
  | Tgraph.Sp_reg { sp_clock; sp_outputs; sp_edge; _ } ->
    if not (Const_prop.pin_active ctx.Context.consts sp_clock) then []
    else
      Clock_prop.fold_indices
        (Clock_prop.mask_at ctx.Context.clocks sp_clock)
        (fun ci acc ->
          {
            launch_pin = sp_clock;
            launch_clock = ci;
            launch_aliases = sp_clock :: sp_outputs;
            launch_edge = sp_edge;
            input_delay = None;
          }
          :: acc)
        []
  | Tgraph.Sp_port { sp_pin } ->
    if not (Const_prop.pin_active ctx.Context.consts sp_pin) then []
    else
      List.filter_map
        (fun (d : Mode.io_delay) ->
          if not (d.iod_input && d.iod_pin = sp_pin) then None
          else
            Option.bind d.iod_clock (Clock_prop.clock_index ctx.Context.clocks)
            |> Option.map (fun ci ->
                   {
                     launch_pin = sp_pin;
                     launch_clock = ci;
                     launch_aliases = [ sp_pin ];
                     launch_edge =
                       (if d.iod_clock_fall then Mm_netlist.Lib_cell.Falling
                        else Mm_netlist.Lib_cell.Rising);
                     input_delay = Some d.iod_value;
                   }))
        ctx.Context.mode.Mode.io_delays

let all_launches (ctx : Context.t) =
  List.concat_map (launches ctx) ctx.Context.graph.Tgraph.sk_startpoints

let seed (ctx : Context.t) l f =
  let excs = ctx.Context.excs in
  List.iter
    (fun edge ->
      let st =
        Excmatch.initial_state excs ~start_pins:l.launch_aliases
          ~launch_clock:(Some l.launch_clock) ~launch_edge:l.launch_edge
          ~data_edge:edge ()
      in
      f (make ~edge l.launch_clock (Excmatch.advance excs st l.launch_pin)))
    (if Excmatch.edge_sensitive excs then [ Mode.Rise_edge; Mode.Fall_edge ]
     else [ Mode.Any_edge ])

module Store = struct
  (* Entries chained per pin, oldest first: [first.(pin)] heads the
     pin's chain and [next] links it. [pin] names each entry's pin, so
     [clear] touches only the entries held. *)
  type t = {
    first : int array;
    mutable key : int array;
    mutable next : int array;
    mutable pin : int array;
    mutable vmin : float array;
    mutable vmax : float array;
    mutable n : int;
  }

  let create n_pins =
    {
      first = Array.make (max 1 n_pins) (-1);
      key = Array.make 64 0;
      next = Array.make 64 0;
      pin = Array.make 64 0;
      vmin = Array.make 64 0.;
      vmax = Array.make 64 0.;
      n = 0;
    }

  let clear t =
    for e = 0 to t.n - 1 do
      t.first.(t.pin.(e)) <- -1
    done;
    t.n <- 0

  let length t = t.n
  let has_tags t pin = t.first.(pin) >= 0

  (* Double every array; the copied half is written before it is read. *)
  let grow t =
    let double a = Array.append a a in
    t.key <- double t.key;
    t.next <- double t.next;
    t.pin <- double t.pin;
    t.vmin <- double t.vmin;
    t.vmax <- double t.vmax

  (* The pin's entry for [key], else the last entry of its chain; -1
     when the pin has none. *)
  let rec seek t key e =
    if t.key.(e) = key || t.next.(e) < 0 then e else seek t key t.next.(e)

  let entry t pin key =
    let e = t.first.(pin) in
    if e < 0 then e else seek t key e

  (* The pin's entry for [key], appended when it has none; the caller
     sets a new entry's values ([length] grew). *)
  let slot t pin key =
    let e = entry t pin key in
    if e >= 0 && t.key.(e) = key then e
    else begin
      if t.n = Array.length t.key then grow t;
      let n = t.n in
      t.n <- n + 1;
      t.key.(n) <- key;
      t.next.(n) <- -1;
      t.pin.(n) <- pin;
      if e < 0 then t.first.(pin) <- n else t.next.(e) <- n;
      n
    end

  let add t pin key vmin vmax =
    let n = t.n in
    let e = slot t pin key in
    if t.n > n then begin
      t.vmin.(e) <- vmin;
      t.vmax.(e) <- vmax
    end
    else begin
      t.vmin.(e) <- Float.min t.vmin.(e) vmin;
      t.vmax.(e) <- Float.max t.vmax.(e) vmax
    end

  (* The arrays are re-read through [t] after each callback, so [f] may
     add entries at other pins. *)
  let iter t pin f =
    let rec go e =
      if e >= 0 then begin
        f t.key.(e) t.vmin.(e) t.vmax.(e);
        go t.next.(e)
      end
    in
    go t.first.(pin)

  (* Keys only: no min/max is boxed for a callback that ignores it. *)
  let iter_keys t pin f =
    let rec go e =
      if e >= 0 then begin
        f t.key.(e);
        go t.next.(e)
      end
    in
    go t.first.(pin)

  let find t pin key =
    let e = entry t pin key in
    if e >= 0 && t.key.(e) = key then Some (t.vmin.(e), t.vmax.(e)) else None

  let tags t pin =
    let acc = ref [] in
    iter t pin (fun key vmin vmax -> acc := (key, vmin, vmax) :: !acc);
    List.rev !acc
end

(* {!Store.add} inlined: the loop reads and writes the store's arrays
   directly, so no closure or boxed float is made per tag; the arrays
   are re-read through [st] after each [slot], which may grow them. *)
let sweep st excs unate ~src ~dst dmin dmax =
  let e = ref st.Store.first.(src) in
  while !e >= 0 do
    let i = !e in
    let key = st.Store.key.(i) in
    let amin = st.Store.vmin.(i) +. dmin and amax = st.Store.vmax.(i) +. dmax in
    let k0 = stepped excs unate dst key in
    for k = k0 to if splits unate key then k0 + 1 else k0 do
      let n = st.Store.n in
      let d = Store.slot st dst k in
      if st.Store.n > n then begin
        st.Store.vmin.(d) <- amin;
        st.Store.vmax.(d) <- amax
      end
      else begin
        st.Store.vmin.(d) <- Float.min st.Store.vmin.(d) amin;
        st.Store.vmax.(d) <- Float.max st.Store.vmax.(d) amax
      end
    done;
    e := st.Store.next.(i)
  done
