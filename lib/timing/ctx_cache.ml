module Mode = Mm_sdc.Mode

(* Contexts by mode name, and the layer store: constant layers by
   [const_key], clock layers by [clock_key]. All three tables are read
   and written under [lock]. *)
type store = {
  lock : Mutex.t;
  tbl : (string, Context.t) Hashtbl.t;
  consts : (string, Const_prop.t) Hashtbl.t;
  clocks : (string, Clock_prop.t) Hashtbl.t;
}

type t = { local : (string, Context.t) Hashtbl.t; store : store }

let create () =
  {
    local = Hashtbl.create 8;
    store =
      {
        lock = Mutex.create ();
        tbl = Hashtbl.create 16;
        consts = Hashtbl.create 64;
        clocks = Hashtbl.create 64;
      };
  }

let fork t = { local = Hashtbl.create 8; store = t.store }

(* Look [key] up in [tbl]; on a miss build the value outside the lock
   (building is the expensive step and must not serialise the pool)
   and publish it, unless another domain published first: its value is
   kept and ours dropped, which is harmless because the value is a pure
   function of the key. *)
let find_or_build s tbl key build =
  match Mutex.protect s.lock (fun () -> Hashtbl.find_opt tbl key) with
  | Some v -> v
  | None ->
    let v = build () in
    Mutex.protect s.lock (fun () ->
        match Hashtbl.find_opt tbl key with
        | Some winner -> winner
        | None ->
          Hashtbl.replace tbl key v;
          v)

(* Exactly what [Const_prop.run] reads of a mode: the final case value
   per pin, ascending, and the set of disables. *)
let const_key (mode : Mode.t) =
  let last = Hashtbl.create 16 in
  List.iter (fun (pin, v) -> Hashtbl.replace last pin v) mode.Mode.cases;
  let cases = List.sort compare (List.of_seq (Hashtbl.to_seq last)) in
  Marshal.to_string
    (cases, List.sort_uniq compare mode.Mode.disables)
    [ Marshal.No_sharing ]

(* What [Clock_prop.run] reads besides its constant layer: the clock
   names and sources in definition order, and the stop senses. *)
let clock_key const_key (mode : Mode.t) =
  const_key
  ^ Marshal.to_string
      ( List.map
          (fun (c : Mode.clock) -> c.Mode.clk_name, c.Mode.sources)
          mode.Mode.clocks,
        List.filter_map
          (fun (s : Mode.clock_sense) ->
            if s.Mode.cs_stop then Some (s.Mode.cs_clocks, s.Mode.cs_pins)
            else None)
          mode.Mode.senses )
      [ Marshal.No_sharing ]

let build t (mode : Mode.t) =
  let s = t.store in
  let design = mode.Mode.design in
  let g = Tgraph.skeleton design in
  let ck = const_key mode in
  let consts =
    find_or_build s s.consts ck (fun () -> Const_prop.run g mode)
  in
  let clocks =
    find_or_build s s.clocks (clock_key ck mode) (fun () ->
        Clock_prop.run g consts mode)
  in
  Context.of_layers design mode consts clocks

let find t (mode : Mode.t) =
  let name = mode.Mode.mode_name in
  match Hashtbl.find_opt t.local name with
  | Some c -> c
  | None ->
    let s = t.store in
    let c = find_or_build s s.tbl name (fun () -> build t mode) in
    Hashtbl.replace t.local name c;
    c

let layers t =
  Mutex.protect t.store.lock (fun () ->
      Hashtbl.length t.store.consts, Hashtbl.length t.store.clocks)
