let schema_version = 2

type stage_rec = {
  st_name : string;
  st_file : string; (* basename within the checkpoint dir *)
  st_digest : string; (* md5 hex of the payload bytes *)
  st_counters : (string * int) list;
}

type t = {
  ck_dir : string;
  ck_fingerprint : string;
  mutable ck_stages : stage_rec list; (* completion order *)
}

let dir t = t.ck_dir
let completed_stages t = List.map (fun s -> s.st_name) t.ck_stages
let has_stage t name = List.exists (fun s -> s.st_name = name) t.ck_stages

let manifest_file dir = Filename.concat dir "MANIFEST"

(* Atomic replace: a kill mid-write leaves the previous file intact. *)
let write_atomic path contents =
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc contents);
  Sys.rename tmp path

let read_whole path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let render_manifest t =
  let b = Buffer.create 256 in
  Buffer.add_string b (Printf.sprintf "modemerge-checkpoint %d\n" schema_version);
  Buffer.add_string b (Printf.sprintf "fingerprint %s\n" t.ck_fingerprint);
  List.iter
    (fun s ->
      Buffer.add_string b
        (Printf.sprintf "stage %s %s %s %d\n" s.st_name s.st_file s.st_digest
           (List.length s.st_counters));
      List.iter
        (fun (name, v) ->
          Buffer.add_string b (Printf.sprintf "counter %s %d\n" name v))
        s.st_counters)
    t.ck_stages;
  Buffer.contents b

let flush_manifest t = write_atomic (manifest_file t.ck_dir) (render_manifest t)

let stage_path t s = Filename.concat t.ck_dir s.st_file

let create ~dir ~fingerprint =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let t = { ck_dir = dir; ck_fingerprint = fingerprint; ck_stages = [] } in
  (* Drop stale payloads from a previous run so a later resume cannot
     pick up a stage this run never completed. *)
  Array.iter
    (fun f ->
      if Filename.check_suffix f ".bin" || Filename.check_suffix f ".tmp" then
        try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
    (try Sys.readdir dir with Sys_error _ -> [||]);
  flush_manifest t;
  t

(* ------------------------------------------------------------------ *)
(* Manifest parsing                                                    *)

let parse_manifest text =
  let lines =
    List.filter (fun l -> String.trim l <> "") (String.split_on_char '\n' text)
  in
  let words l =
    List.filter (fun w -> w <> "") (String.split_on_char ' ' l)
  in
  match lines with
  | header :: rest -> (
    match words header with
    | [ "modemerge-checkpoint"; v ] when int_of_string_opt v = Some schema_version
      -> (
      match rest with
      | fp_line :: stage_lines -> (
        match words fp_line with
        | [ "fingerprint"; fp ] ->
          let rec stages acc = function
            | [] -> Ok (List.rev acc)
            | l :: tl -> (
              match words l with
              | [ "stage"; name; file; digest; n ] -> (
                match int_of_string_opt n with
                | None -> Error "bad stage line"
                | Some n ->
                  let rec take k cs tl =
                    if k = 0 then Ok (List.rev cs, tl)
                    else
                      match tl with
                      | cl :: tl' -> (
                        match words cl with
                        | [ "counter"; cname; v ] -> (
                          match int_of_string_opt v with
                          | Some v -> take (k - 1) ((cname, v) :: cs) tl'
                          | None -> Error "bad counter line")
                        | _ -> Error "bad counter line")
                      | [] -> Error "truncated counter block"
                  in
                  (match take n [] tl with
                  | Error _ as e -> e
                  | Ok (cs, tl') ->
                    stages
                      ({ st_name = name; st_file = file; st_digest = digest;
                         st_counters = cs }
                      :: acc)
                      tl'))
              | _ -> Error "bad manifest line")
          in
          (match stages [] stage_lines with
          | Ok ss -> Ok (fp, ss)
          | Error _ as e -> e)
        | _ -> Error "missing fingerprint line")
      | [] -> Error "missing fingerprint line")
    | [ "modemerge-checkpoint"; v ] ->
      Error
        (Printf.sprintf "checkpoint schema version %s, this build reads %d" v
           schema_version)
    | _ -> Error "not a modemerge checkpoint manifest")
  | [] -> Error "empty manifest"

let payload_ok t s =
  let path = stage_path t s in
  Sys.file_exists path
  && (try Digest.to_hex (Digest.file path) = s.st_digest
      with Sys_error _ -> false)

let load_for_resume ~dir ~fingerprint =
  let mf = manifest_file dir in
  if not (Sys.file_exists mf) then
    Error (Printf.sprintf "no checkpoint manifest at %s" mf)
  else
    match parse_manifest (read_whole mf) with
    | exception Sys_error msg -> Error msg
    | Error msg -> Error (Printf.sprintf "%s: %s" mf msg)
    | Ok (fp, stages) ->
      if fp <> fingerprint then
        Error
          "checkpoint fingerprint does not match the current inputs/options; \
           refusing to resume (rerun without --resume to start fresh)"
      else begin
        let t = { ck_dir = dir; ck_fingerprint = fingerprint; ck_stages = [] } in
        (* Keep only the valid prefix: a torn stage invalidates
           everything after it (later stages consumed its state). *)
        let rec prefix = function
          | s :: tl when payload_ok t s -> s :: prefix tl
          | _ -> []
        in
        t.ck_stages <- prefix stages;
        Ok t
      end

(* ------------------------------------------------------------------ *)
(* Stage IO                                                            *)

let save_stage t ~stage ~counters v =
  let file = stage ^ ".bin" in
  let bytes = Marshal.to_string v [] in
  write_atomic (Filename.concat t.ck_dir file) bytes;
  Mm_util.Eventlog.log "checkpoint.saved"
    ~attrs:
      [ "stage", stage; "bytes", string_of_int (String.length bytes) ];
  let s =
    {
      st_name = stage;
      st_file = file;
      st_digest = Digest.to_hex (Digest.string bytes);
      st_counters = counters;
    }
  in
  t.ck_stages <-
    List.filter (fun s' -> s'.st_name <> stage) t.ck_stages @ [ s ];
  flush_manifest t

let load_stage t ~stage =
  match List.find_opt (fun s -> s.st_name = stage) t.ck_stages with
  | None -> None
  | Some s ->
    if not (payload_ok t s) then None
    else
      match read_whole (stage_path t s) with
      | bytes -> Some (Marshal.from_string bytes 0, s.st_counters)
      | exception Sys_error _ -> None
