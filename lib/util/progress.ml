(* Two fixed done/total trackers with ETA, lock-free and always on.
   The stage comes from the event journal, so it is not recorded twice.
   Rendering to stderr is opt-in (--progress) and throttled; the data
   path never writes anything, so progress tracking is read-only with
   respect to results. *)

type tracker = {
  name : string;
  done_ : int Atomic.t;
  total : int Atomic.t;
  start_ns : int Atomic.t; (* first activity on Obs.Clock; 0 = none yet *)
}

let make name =
  { name; done_ = Atomic.make 0; total = Atomic.make 0; start_ns = Atomic.make 0 }

let pool_tasks = make "pool.tasks"
let sta_pins = make "sta.pins"
let trackers = [ pool_tasks; sta_pins ]

let now_ns () = Int64.to_int (Obs.Clock.now_ns ())

let stamp t =
  if Atomic.get t.start_ns = 0 then
    ignore (Atomic.compare_and_set t.start_ns 0 (now_ns ()))

(* ------------------------------------------------------------------ *)
(* Snapshots                                                           *)

type view = {
  tr_name : string;
  tr_done : int;
  tr_total : int;
  tr_elapsed_s : float;
  tr_eta_s : float option;
}

let view t =
  let start = Atomic.get t.start_ns in
  let d = Atomic.get t.done_ and n = Atomic.get t.total in
  let elapsed = if start = 0 then 0. else float_of_int (now_ns () - start) /. 1e9 in
  {
    tr_name = t.name;
    tr_done = d;
    tr_total = n;
    tr_elapsed_s = elapsed;
    tr_eta_s =
      (if n <= 0 || d <= 0 || d >= n then None
       else Some (elapsed /. float_of_int d *. float_of_int (n - d)));
  }

(* The open stage and the finished-stage count of the newest run, read
   from the [run.start] / [stage.start] / [stage.finish] journal events
   that [Merge_flow.staged] logs. *)
let stages () =
  let stage ev = List.assoc_opt "stage" ev.Obs.ev_attrs in
  let open_, finished =
    List.fold_left
      (fun ((open_, finished) as acc) ev ->
        match ev.Obs.ev_kind, stage ev with
        | "run.start", _ -> [], 0
        | "stage.start", Some s -> s :: open_, finished
        | "stage.finish", Some s -> List.filter (( <> ) s) open_, finished + 1
        | _ -> acc)
      ([], 0) (Obs.events ())
  in
  (match open_ with s :: _ -> Some s | [] -> None), finished

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)

let render_on = Atomic.make false
let set_render b = Atomic.set render_on b

(* Eager: forcing a lazy from several domains at once is a race. *)
let is_tty = try Unix.isatty Unix.stderr with _ -> false

(* Last render instant; the bar redraws at most every 100 ms on a TTY
   and every 2 s on a pipe. A tick claims a redraw by compare-and-set,
   so concurrent ticks draw it once. *)
let last_render_ns = Atomic.make 0
let bar_open = Atomic.make false (* a \r-bar line is unterminated *)

let bar_of v =
  let width = 10 in
  let full = v.tr_done * width / v.tr_total in
  Printf.sprintf "%s [%s%s] %d/%d%s" v.tr_name (String.make full '#')
    (String.make (width - full) '-')
    v.tr_done v.tr_total
    (match v.tr_eta_s with None -> "" | Some e -> Printf.sprintf " ETA %.1fs" e)

(* The open stage, then every tracker with work outstanding (a tracker
   that has never run has done = total = 0, so it is skipped). *)
let render () =
  let stage, _ = stages () in
  let busy =
    List.filter (fun v -> v.tr_done < v.tr_total) (List.map view trackers)
  in
  if stage <> None || busy <> [] then
    if is_tty then begin
      let line =
        String.concat "  " (Option.to_list stage @ List.map bar_of busy)
      in
      (* Pad so a shrinking line leaves no tail; cut so it never wraps. *)
      Printf.eprintf "\r%-79s%!"
        (if String.length line > 79 then String.sub line 0 79 else line);
      Atomic.set bar_open true
    end
    else
      Printf.eprintf "progress:%s%s\n%!"
        (match stage with None -> "" | Some s -> " " ^ s)
        (String.concat ""
           (List.map
              (fun v -> Printf.sprintf " %s %d/%d" v.tr_name v.tr_done v.tr_total)
              busy))

let maybe_render () =
  if Atomic.get render_on then begin
    let now = now_ns () and last = Atomic.get last_render_ns in
    let gap = if is_tty then 100_000_000 else 2_000_000_000 in
    if now - last >= gap && Atomic.compare_and_set last_render_ns last now then
      render ()
  end

let render_finish () =
  if Atomic.exchange bar_open false then begin
    prerr_newline ();
    flush stderr
  end

(* ------------------------------------------------------------------ *)
(* Recording                                                           *)

let add_total t n =
  stamp t;
  ignore (Atomic.fetch_and_add t.total n)

let tick ?(by = 1) t =
  stamp t;
  ignore (Atomic.fetch_and_add t.done_ by);
  maybe_render ()

let reset () =
  List.iter
    (fun t ->
      Atomic.set t.done_ 0;
      Atomic.set t.total 0;
      Atomic.set t.start_ns 0)
    trackers;
  Atomic.set last_render_ns 0
