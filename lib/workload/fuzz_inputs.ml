module Prng = Mm_util.Prng

type mutation =
  | Delete_token  (* drop one word from a command line *)
  | Delete_line  (* drop a whole command *)
  | Duplicate_line  (* repeat a command verbatim *)
  | Truncate  (* cut the text at a random offset *)
  | Garbage_splice  (* insert a junk fragment at a random offset *)
  | Flip_char  (* overwrite one char with a hostile delimiter *)
  | Unbalance  (* insert a lone bracket/brace/quote *)

let all_mutations =
  [|
    Delete_token; Delete_line; Duplicate_line; Truncate; Garbage_splice;
    Flip_char; Unbalance;
  |]

let lines_of s = String.split_on_char '\n' s
let unlines ls = String.concat "\n" ls

(* Lines that carry a command (non-empty, non-comment). *)
let command_line_indices ls =
  List.filter_map
    (fun (i, l) ->
      let l = String.trim l in
      if l <> "" && l.[0] <> '#' then Some i else None)
    (List.mapi (fun i l -> i, l) ls)

let pick_command_line rng ls =
  match command_line_indices ls with
  | [] -> None
  | idxs -> Some (List.nth idxs (Prng.int rng (List.length idxs)))

let garbage_pool =
  [|
    "]"; "["; "{"; "}"; "\""; "\\"; "@@@"; "[get_"; "set_"; "-bogus_flag";
    "set_voodoo 1 2 3"; "{unclosed"; "\"unclosed string"; "create_clock";
    ";;;["; "0x??";
  |]

let apply rng mutation src =
  if String.length src = 0 then src
  else
    match mutation with
    | Delete_token -> (
      let ls = lines_of src in
      match pick_command_line rng ls with
      | None -> src
      | Some i ->
        let words =
          String.split_on_char ' ' (List.nth ls i)
          |> List.filter (fun w -> w <> "")
        in
        let n = List.length words in
        if n <= 1 then src
        else
          let k = Prng.int rng n in
          let line' =
            String.concat " " (List.filteri (fun j _ -> j <> k) words)
          in
          unlines (List.mapi (fun j l -> if j = i then line' else l) ls))
    | Delete_line -> (
      let ls = lines_of src in
      match pick_command_line rng ls with
      | None -> src
      | Some i -> unlines (List.filteri (fun j _ -> j <> i) ls))
    | Duplicate_line -> (
      let ls = lines_of src in
      match pick_command_line rng ls with
      | None -> src
      | Some i ->
        let line = List.nth ls i in
        unlines
          (List.concat_map
             (fun (j, l) -> if j = i then [ l; line ] else [ l ])
             (List.mapi (fun j l -> j, l) ls)))
    | Truncate ->
      let n = Prng.int rng (String.length src + 1) in
      String.sub src 0 n
    | Garbage_splice ->
      let pos = Prng.int rng (String.length src + 1) in
      let g = Prng.pick rng garbage_pool in
      String.sub src 0 pos ^ g ^ String.sub src pos (String.length src - pos)
    | Flip_char ->
      let pos = Prng.int rng (String.length src) in
      let pool = "[]{}\";#\\xq0" in
      let c = pool.[Prng.int rng (String.length pool)] in
      let b = Bytes.of_string src in
      Bytes.set b pos c;
      Bytes.to_string b
    | Unbalance ->
      let pos = Prng.int rng (String.length src + 1) in
      let g = Prng.pick rng [| "["; "{"; "\""; "]" |] in
      String.sub src 0 pos ^ g ^ String.sub src pos (String.length src - pos)

let corrupt ?(rounds = 3) rng src =
  let n = 1 + Prng.int rng rounds in
  let rec go i acc =
    if i >= n then acc else go (i + 1) (apply rng (Prng.pick rng all_mutations) acc)
  in
  go 0 src

let corrupt_seeded ~seed ?rounds src = corrupt ?rounds (Prng.create seed) src
