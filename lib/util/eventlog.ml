(* Bounded ring journal of structured events. Always on: one mutex
   acquisition and an array write per event, memory bounded by the
   capacity, so even a misplaced per-element [log] cannot grow the
   process. The ring holds the newest [capacity] events; the sequence
   counter survives wraparound so [total] stays exact. *)

type event = {
  ev_seq : int;
  ev_t_ns : int64;
  ev_ts : float;
  ev_kind : string;
  ev_attrs : (string * string) list;
}

let schema_version = "modemerge-events/1"
let capacity = 4096

type state = {
  ring : event option array;
  mutable head : int; (* next write slot *)
  mutable live : int; (* occupied slots, <= capacity *)
  mutable seq : int; (* total events ever logged *)
}

let lock = Mutex.create ()
let st = { ring = Array.make capacity None; head = 0; live = 0; seq = 0 }

let with_lock f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

(* Retained events oldest-first; caller holds the lock. *)
let retained_locked () =
  let out = ref [] in
  for i = 0 to st.live - 1 do
    (* newest is at head-1, oldest at head-live (mod capacity) *)
    let idx = (st.head - 1 - i + (2 * capacity)) mod capacity in
    match st.ring.(idx) with
    | Some e -> out := e :: !out
    | None -> ()
  done;
  !out

let log ?(attrs = []) kind =
  let t_ns = Obs.Clock.now_ns () in
  let ts = Unix.gettimeofday () in
  with_lock (fun () ->
      let e =
        { ev_seq = st.seq; ev_t_ns = t_ns; ev_ts = ts; ev_kind = kind;
          ev_attrs = attrs }
      in
      st.ring.(st.head) <- Some e;
      st.head <- (st.head + 1) mod capacity;
      if st.live < capacity then st.live <- st.live + 1;
      st.seq <- st.seq + 1)

let recent () = with_lock retained_locked

let total () = with_lock (fun () -> st.seq)

let dropped () = with_lock (fun () -> st.seq - st.live)

let reset () =
  with_lock (fun () ->
      Array.fill st.ring 0 capacity None;
      st.head <- 0;
      st.live <- 0;
      st.seq <- 0)

let event_json e =
  let esc = Metrics.json_escape in
  let attrs =
    match e.ev_attrs with
    | [] -> ""
    | attrs ->
      String.concat ","
        (List.map
           (fun (k, v) -> Printf.sprintf {|"%s":"%s"|} (esc k) (esc v))
           attrs)
  in
  (* ts needs microsecond wall-clock resolution, which the 9-significant
     -digit Metrics.json_float would truncate away on epoch seconds. *)
  Printf.sprintf {|{"seq":%d,"ts":%.6f,"t_ns":%Ld,"kind":"%s","attrs":{%s}}|}
    e.ev_seq
    (if Float.is_finite e.ev_ts then e.ev_ts else 0.)
    e.ev_t_ns (esc e.ev_kind) attrs

let to_ndjson () =
  let events = recent () in
  let header =
    Printf.sprintf {|{"schema":"%s","total":%d,"dropped":%d}|} schema_version
      (total ()) (dropped ())
  in
  String.concat "\n" (header :: List.map event_json events) ^ "\n"
