type 'a t = { mutable data : 'a array; mutable len : int }

let create ?(capacity = 16) () =
  ignore capacity;
  { data = [||]; len = 0 }

let length v = v.len

let grow v x =
  let cap = Array.length v.data in
  let ncap = if cap = 0 then 16 else cap * 2 in
  let data = Array.make ncap x in
  Array.blit v.data 0 data 0 v.len;
  v.data <- data

let push v x =
  if v.len = Array.length v.data then grow v x;
  v.data.(v.len) <- x;
  v.len <- v.len + 1;
  v.len - 1

let check v i =
  if i < 0 || i >= v.len then invalid_arg "Vec: index out of bounds"

let get v i =
  check v i;
  v.data.(i)

let set v i x =
  check v i;
  v.data.(i) <- x

let iter f v =
  for i = 0 to v.len - 1 do
    f v.data.(i)
  done

let iteri f v =
  for i = 0 to v.len - 1 do
    f i v.data.(i)
  done

let fold f acc v =
  let acc = ref acc in
  for i = 0 to v.len - 1 do
    acc := f !acc v.data.(i)
  done;
  !acc

let to_list v = List.init v.len (fun i -> v.data.(i))

let exists p v =
  let rec go i = i < v.len && (p v.data.(i) || go (i + 1)) in
  go 0

let find_index p v =
  let rec go i =
    if i >= v.len then None else if p v.data.(i) then Some i else go (i + 1)
  in
  go 0
