exception Injected of string

let () =
  Printexc.register_printer (function
    | Injected site -> Some (Printf.sprintf "Chaos.Injected(%s)" site)
    | _ -> None)

type fault = Delay_s of float | Raise

type occurrence = Nth of int | Every

type entry = { e_site : string; e_occ : occurrence; e_fault : fault }

type plan = { entries : entry list; counts : (string, int) Hashtbl.t }

let enabled = Atomic.make false
let lock = Mutex.create ()
let plan : plan option ref = ref None

let parse_entry s =
  match String.index_opt s '=' with
  | None -> Error (Printf.sprintf "chaos entry %S: missing '='" s)
  | Some eq -> (
    let lhs = String.sub s 0 eq in
    let rhs = String.sub s (eq + 1) (String.length s - eq - 1) in
    let site, occ =
      match String.rindex_opt lhs '@' with
      | None -> lhs, Ok Every
      | Some at ->
        let o = String.sub lhs (at + 1) (String.length lhs - at - 1) in
        ( String.sub lhs 0 at,
          if o = "*" then Ok Every
          else
            match int_of_string_opt o with
            | Some n when n >= 1 -> Ok (Nth n)
            | _ -> Error (Printf.sprintf "chaos entry %S: bad occurrence %S" s o)
        )
    in
    match occ with
    | Error _ as e -> e
    | Ok occ -> (
      let fault =
        match String.split_on_char ':' rhs with
        | [ "raise" ] -> Ok Raise
        | [ "delay"; ms ] -> (
          match float_of_string_opt ms with
          | Some ms when ms >= 0. -> Ok (Delay_s (ms /. 1000.))
          | _ -> Error (Printf.sprintf "chaos entry %S: bad delay" s))
        | _ -> Error (Printf.sprintf "chaos entry %S: unknown fault %S" s rhs)
      in
      match fault with
      | Error _ as e -> e
      | Ok fault -> Ok { e_site = site; e_occ = occ; e_fault = fault }))

let clear () =
  Mutex.lock lock;
  plan := None;
  Atomic.set enabled false;
  Mutex.unlock lock

let configure spec =
  let spec = String.trim spec in
  if spec = "" then begin
    clear ();
    Ok ()
  end
  else
    let parts =
      List.filter (fun s -> s <> "")
        (List.map String.trim (String.split_on_char ',' spec))
    in
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | p :: tl -> (
        match parse_entry p with
        | Ok e -> go (e :: acc) tl
        | Error _ as e -> e)
    in
    match go [] parts with
    | Error msg -> Error msg
    | Ok entries ->
      Mutex.lock lock;
      plan := Some { entries; counts = Hashtbl.create 8 };
      Atomic.set enabled true;
      Mutex.unlock lock;
      Ok ()

let configure_env () =
  match Sys.getenv_opt "MM_CHAOS" with
  | None | Some "" -> ()
  | Some spec -> (
    match configure spec with
    | Ok () -> ()
    | Error msg ->
      Printf.eprintf "fatal[chaos.spec]: %s\n%!" msg;
      exit 2)

let active () = Atomic.get enabled

let hit_count site =
  if not (Atomic.get enabled) then 0
  else begin
    Mutex.lock lock;
    let n =
      match !plan with
      | None -> 0
      | Some p -> Option.value ~default:0 (Hashtbl.find_opt p.counts site)
    in
    Mutex.unlock lock;
    n
  end

let hit site =
  if Atomic.get enabled then begin
    Mutex.lock lock;
    let faults =
      match !plan with
      | None -> []
      | Some p ->
        let n = 1 + Option.value ~default:0 (Hashtbl.find_opt p.counts site) in
        Hashtbl.replace p.counts site n;
        List.filter_map
          (fun e ->
            if
              e.e_site = site
              && (match e.e_occ with Every -> true | Nth k -> k = n)
            then Some e.e_fault
            else None)
          p.entries
    in
    Mutex.unlock lock;
    (* Journal the injection before firing: a raise never comes back
       here, and the event must still reach the ring. *)
    if faults <> [] then
      Obs.event "chaos.injected"
        ~attrs:
          [ "site", site;
            "faults",
            String.concat ","
              (List.map
                 (function
                   | Delay_s s -> Printf.sprintf "delay:%g" s
                   | Raise -> "raise")
                 faults) ];
    (* Fire outside the lock: a delay must not serialise other sites,
       and a raise must not leave the mutex held. *)
    List.iter
      (function
        | Delay_s s -> if s > 0. then Unix.sleepf s
        | Raise -> raise (Injected site))
      faults
  end
