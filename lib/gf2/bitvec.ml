type t = { len : int; words : Bytes.t }
(* Bits are packed 8 per byte, little-endian within each byte.  Bytes
   rather than int arrays keeps copying cheap and avoids boxing; the
   hot XOR path works 8 bytes at a time through unsafe 64-bit reads. *)

(* storage is padded to whole 64-bit words so that word-parallel
   consumers (the tableau's phase accumulation) can read aligned
   int64s without a tail case; padding bits stay 0 because every
   mutator works within [0, len). *)
let bytes_for len = (len + 63) / 64 * 8

let create len =
  if len < 0 then invalid_arg "Bitvec.create: negative length";
  { len; words = Bytes.make (bytes_for len) '\000' }

let length v = v.len

let check_index v i =
  if i < 0 || i >= v.len then invalid_arg "Bitvec: index out of range"

let get v i =
  check_index v i;
  let b = Char.code (Bytes.unsafe_get v.words (i lsr 3)) in
  b land (1 lsl (i land 7)) <> 0

let set v i bit =
  check_index v i;
  let j = i lsr 3 in
  let b = Char.code (Bytes.unsafe_get v.words j) in
  let mask = 1 lsl (i land 7) in
  let b' = if bit then b lor mask else b land lnot mask in
  Bytes.unsafe_set v.words j (Char.unsafe_chr b')

let flip v i =
  check_index v i;
  let j = i lsr 3 in
  let b = Char.code (Bytes.unsafe_get v.words j) in
  Bytes.unsafe_set v.words j (Char.unsafe_chr (b lxor (1 lsl (i land 7))))

let copy v = { len = v.len; words = Bytes.copy v.words }

let check_same_length a b =
  if a.len <> b.len then invalid_arg "Bitvec: length mismatch"

let xor_into ~src dst =
  check_same_length src dst;
  let n = Bytes.length dst.words in
  let full = n - (n mod 8) in
  let i = ref 0 in
  while !i < full do
    let a = Bytes.get_int64_ne dst.words !i
    and b = Bytes.get_int64_ne src.words !i in
    Bytes.set_int64_ne dst.words !i (Int64.logxor a b);
    i := !i + 8
  done;
  for j = full to n - 1 do
    let a = Char.code (Bytes.unsafe_get dst.words j)
    and b = Char.code (Bytes.unsafe_get src.words j) in
    Bytes.unsafe_set dst.words j (Char.unsafe_chr (a lxor b))
  done

let blit ~src dst =
  check_same_length src dst;
  Bytes.blit src.words 0 dst.words 0 (Bytes.length src.words)

let clear v = Bytes.fill v.words 0 (Bytes.length v.words) '\000'

let xor a b =
  let r = copy a in
  xor_into ~src:b r;
  r

let and_ a b =
  check_same_length a b;
  let r = copy a in
  for j = 0 to Bytes.length r.words - 1 do
    let x = Char.code (Bytes.unsafe_get r.words j)
    and y = Char.code (Bytes.unsafe_get b.words j) in
    Bytes.unsafe_set r.words j (Char.unsafe_chr (x land y))
  done;
  r

let popcount_byte =
  (* 256-entry popcount table; tiny and avoids per-bit loops. *)
  let t = Array.make 256 0 in
  for i = 1 to 255 do
    t.(i) <- t.(i lsr 1) + (i land 1)
  done;
  t

let weight v =
  let n = Bytes.length v.words in
  let acc = ref 0 in
  for j = 0 to n - 1 do
    acc := !acc + popcount_byte.(Char.code (Bytes.unsafe_get v.words j))
  done;
  !acc

let parity v = weight v land 1 = 1

let dot a b =
  check_same_length a b;
  let acc = ref 0 in
  for j = 0 to Bytes.length a.words - 1 do
    let x = Char.code (Bytes.unsafe_get a.words j)
    and y = Char.code (Bytes.unsafe_get b.words j) in
    acc := !acc + popcount_byte.(x land y)
  done;
  !acc land 1 = 1

let is_zero v =
  let n = Bytes.length v.words in
  let rec loop j = j >= n || (Bytes.unsafe_get v.words j = '\000' && loop (j + 1)) in
  loop 0

let equal a b = a.len = b.len && Bytes.equal a.words b.words

let compare a b =
  let c = Int.compare a.len b.len in
  if c <> 0 then c else Bytes.compare a.words b.words

let of_bool_list bs =
  let v = create (List.length bs) in
  List.iteri (fun i b -> if b then set v i true) bs;
  v

let to_bool_list v = List.init v.len (get v)

let unpack_into v bits =
  if Array.length bits <> v.len then invalid_arg "Bitvec.unpack_into";
  for i = 0 to v.len - 1 do
    let b = Char.code (Bytes.unsafe_get v.words (i lsr 3)) in
    Array.unsafe_set bits i (b land (1 lsl (i land 7)) <> 0)
  done

let of_int_list xs =
  let f = function
    | 0 -> false
    | 1 -> true
    | _ -> invalid_arg "Bitvec.of_int_list: bits must be 0 or 1"
  in
  of_bool_list (List.map f xs)

let to_int_list v = List.init v.len (fun i -> if get v i then 1 else 0)

let of_string s =
  let v = create (String.length s) in
  String.iteri
    (fun i c ->
      match c with
      | '0' -> ()
      | '1' -> set v i true
      | _ -> invalid_arg "Bitvec.of_string: expected only '0'/'1'")
    s;
  v

let to_string v = String.init v.len (fun i -> if get v i then '1' else '0')

let of_int ~width x =
  if width < 0 || width > 62 then invalid_arg "Bitvec.of_int: width";
  let v = create width in
  for i = 0 to width - 1 do
    if (x lsr i) land 1 = 1 then set v i true
  done;
  v

let to_int v =
  if v.len > 62 then invalid_arg "Bitvec.to_int: too long";
  let acc = ref 0 in
  for i = v.len - 1 downto 0 do
    acc := (!acc lsl 1) lor (if get v i then 1 else 0)
  done;
  !acc

let iteri f v =
  for i = 0 to v.len - 1 do
    f i (get v i)
  done

let support v =
  let acc = ref [] in
  for i = v.len - 1 downto 0 do
    if get v i then acc := i :: !acc
  done;
  !acc

let append a b =
  let r = create (a.len + b.len) in
  iteri (fun i bit -> if bit then set r i true) a;
  iteri (fun i bit -> if bit then set r (a.len + i) true) b;
  r

let sub v ~pos ~len =
  if pos < 0 || len < 0 || pos + len > v.len then invalid_arg "Bitvec.sub";
  let r = create len in
  for i = 0 to len - 1 do
    if get v (pos + i) then set r i true
  done;
  r

let randomize ~p rng v =
  for i = 0 to v.len - 1 do
    set v i (Random.State.float rng 1.0 < p)
  done

let num_words v = Bytes.length v.words / 8
let get_word v j = Bytes.get_int64_ne v.words (8 * j)

let set_word v j w =
  if j < 0 || j >= num_words v then
    invalid_arg "Bitvec.set_word: word index out of range";
  (* mask the tail word so the padding-bits-stay-zero invariant holds
     whatever the caller hands us *)
  let live = v.len - (64 * j) in
  let w =
    if live >= 64 then w
    else Int64.logand w (Int64.sub (Int64.shift_left 1L live) 1L)
  in
  Bytes.set_int64_ne v.words (8 * j) w

let pp fmt v = Format.pp_print_string fmt (to_string v)
