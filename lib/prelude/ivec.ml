type t = {
  mutable data : int array;
  mutable len : int;
}

let create ?(capacity = 0) () =
  { data = (if capacity <= 0 then [||] else Array.make capacity 0); len = 0 }

let length t = t.len

let grow t needed =
  let cap = Array.length t.data in
  let ncap = max needed (if cap = 0 then 16 else 2 * cap) in
  let ndata = Array.make ncap 0 in
  Array.blit t.data 0 ndata 0 t.len;
  t.data <- ndata

let push t x =
  if t.len = Array.length t.data then grow t (t.len + 1);
  t.data.(t.len) <- x;
  t.len <- t.len + 1

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Ivec.get: index out of bounds";
  t.data.(i)

let set t i x =
  if i < 0 || i >= t.len then invalid_arg "Ivec.set: index out of bounds";
  t.data.(i) <- x

let clear t = t.len <- 0

let reserve t capacity = if capacity > Array.length t.data then grow t capacity

let append t src ~pos ~len =
  if len > 0 then begin
    if t.len + len > Array.length t.data then grow t (t.len + len);
    Array.blit src pos t.data t.len len;
    t.len <- t.len + len
  end

let iter f t =
  for i = 0 to t.len - 1 do
    f t.data.(i)
  done

let to_array t = Array.sub t.data 0 t.len

let copy ?(room = 0) t =
  let c = create ~capacity:(t.len + room) () in
  append c t.data ~pos:0 ~len:t.len;
  c

let raw t = t.data
