module Bitvec = Gf2.Bitvec
module Mat = Gf2.Mat

type t = {
  name : string;
  n : int;
  k : int;
  generators : Pauli.t array;
  logical_x : Pauli.t array;
  logical_z : Pauli.t array;
}

let fail fmt = Format.kasprintf invalid_arg fmt

let symplectic_row p = Bitvec.append (Pauli.x_bits p) (Pauli.z_bits p)

let make ~name ~generators ~logical_x ~logical_z =
  (match generators with
  | [] -> fail "%s: no generators" name
  | g :: _ ->
    let n = Pauli.num_qubits g in
    List.iteri
      (fun i p ->
        if Pauli.num_qubits p <> n then fail "%s: generator %d size" name i)
      generators);
  let n = Pauli.num_qubits (List.hd generators) in
  let k = List.length logical_x in
  if List.length logical_z <> k then fail "%s: |X̄| <> |Z̄|" name;
  if List.length generators <> n - k then
    fail "%s: expected %d generators, got %d" name (n - k)
      (List.length generators);
  let all = generators @ logical_x @ logical_z in
  List.iter
    (fun p ->
      match Pauli.phase p with
      | 0 | 2 -> ()
      | _ -> fail "%s: non-Hermitian operator %s" name (Pauli.to_string p))
    all;
  (* generators mutually commute *)
  List.iteri
    (fun i gi ->
      List.iteri
        (fun j gj ->
          if i < j && not (Pauli.commutes gi gj) then
            fail "%s: generators %d and %d anticommute" name i j)
        generators)
    generators;
  (* independence: symplectic rows have full rank *)
  let m = Mat.of_rows (List.map symplectic_row generators) in
  if Mat.rank m <> n - k then fail "%s: generators not independent" name;
  (* logicals commute with every generator *)
  let check_logical tag idx p =
    List.iteri
      (fun j g ->
        if not (Pauli.commutes p g) then
          fail "%s: %s%d anticommutes with generator %d" name tag idx j)
      generators
  in
  List.iteri (check_logical "X̄") logical_x;
  List.iteri (check_logical "Z̄") logical_z;
  (* Eq. (29) pairings *)
  let lx = Array.of_list logical_x and lz = Array.of_list logical_z in
  for i = 0 to k - 1 do
    for j = 0 to k - 1 do
      if not (Pauli.commutes lx.(i) lx.(j)) then
        fail "%s: X̄%d, X̄%d anticommute" name i j;
      if not (Pauli.commutes lz.(i) lz.(j)) then
        fail "%s: Z̄%d, Z̄%d anticommute" name i j;
      let comm = Pauli.commutes lx.(i) lz.(j) in
      if i = j && comm then fail "%s: X̄%d must anticommute with Z̄%d" name i i;
      if i <> j && not comm then fail "%s: X̄%d, Z̄%d anticommute" name i j
    done
  done;
  { name; n; k; generators = Array.of_list generators; logical_x = lx; logical_z = lz }

let syndrome code e =
  if Pauli.num_qubits e <> code.n then fail "%s: syndrome size" code.name;
  let s = Bitvec.create (Array.length code.generators) in
  Array.iteri
    (fun i g -> if not (Pauli.commutes e g) then Bitvec.set s i true)
    code.generators;
  s

let stabilizer_row_space code =
  Mat.of_rows (Array.to_list (Array.map symplectic_row code.generators))

let classify code p =
  if not (Bitvec.is_zero (syndrome code p)) then `Detectable
  else if Pauli.weight p = 0 then `Stabilizer
  else if Mat.in_row_space (stabilizer_row_space code) (symplectic_row p) then
    `Stabilizer
  else `Logical

(* Enumerate all Paulis of exact weight w on n qubits. *)
let iter_paulis_of_weight n w f =
  let letters = [| Pauli.X; Pauli.Y; Pauli.Z |] in
  let positions = Array.make w 0 in
  let choice = Array.make w 0 in
  let rec choose_letters depth =
    if depth = w then begin
      let p = ref (Pauli.identity n) in
      for i = 0 to w - 1 do
        p := Pauli.mul !p (Pauli.single n positions.(i) letters.(choice.(i)))
      done;
      f !p
    end
    else
      for l = 0 to 2 do
        choice.(depth) <- l;
        choose_letters (depth + 1)
      done
  in
  let rec choose_positions idx start =
    if idx = w then choose_letters 0
    else
      for q = start to n - 1 do
        positions.(idx) <- q;
        choose_positions (idx + 1) (q + 1)
      done
  in
  if w = 0 then f (Pauli.identity n) else choose_positions 0 0

exception Found of int

let distance code =
  try
    for w = 1 to code.n do
      iter_paulis_of_weight code.n w (fun p ->
          match classify code p with
          | `Logical -> raise (Found w)
          | `Stabilizer | `Detectable -> ())
    done;
    fail "%s: no logical operator found (not a k>0 code?)" code.name
  with Found w -> w

type decoder = { code_n : int; decode_fn : Bitvec.t -> Pauli.t option }

let decoder_of_fn ~n decode_fn = { code_n = n; decode_fn }

let decoder_of_table n table =
  decoder_of_fn ~n (fun s -> Hashtbl.find_opt table (Bitvec.to_string s))

let lookup_decoder ?(max_weight = 2) code =
  let table = Hashtbl.create 256 in
  for w = 0 to max_weight do
    iter_paulis_of_weight code.n w (fun p ->
        let key = Bitvec.to_string (syndrome code p) in
        if not (Hashtbl.mem table key) then Hashtbl.add table key p)
  done;
  decoder_of_table code.n table

let decoder_of_alist entries =
  match entries with
  | [] -> invalid_arg "decoder_of_alist: empty"
  | (_, p) :: _ ->
    let table = Hashtbl.create (List.length entries) in
    List.iter
      (fun (key, correction) ->
        if not (Hashtbl.mem table key) then Hashtbl.add table key correction)
      entries;
    decoder_of_table (Pauli.num_qubits p) table

let decode d s = d.decode_fn s

let correct d code e =
  match decode d (syndrome code e) with
  | None -> `Unhandled
  | Some c -> (
    let residual = Pauli.mul c e in
    match classify code residual with
    | `Stabilizer -> `Ok
    | `Logical -> `Logical_error
    | `Detectable ->
      (* impossible: c and e share a syndrome *)
      assert false)

(* Solve for fix-up Paulis D_i that anticommute with ops.(i) and
   commute with every other listed operator: applying D_i flips only
   the i-th eigenvalue, so a deterministic −1 after the earlier
   projections can always be repaired. *)
let fixups_for code ops =
  let n = code.n in
  let constraint_matrix =
    Mat.of_rows
      (Array.to_list
         (Array.map
            (fun op -> Bitvec.append (Pauli.z_bits op) (Pauli.x_bits op))
            ops))
  in
  Array.init (Array.length ops) (fun i ->
      let rhs = Bitvec.create (Array.length ops) in
      Bitvec.set rhs i true;
      match Mat.solve constraint_matrix rhs with
      | Some v ->
        Pauli.of_bits
          ~x:(Bitvec.sub v ~pos:0 ~len:n)
          ~z:(Bitvec.sub v ~pos:n ~len:n)
          ()
      | None -> fail "%s: no fix-up operator (dependent set?)" code.name)

let prepare_eigenstate code ops =
  let tab = Tableau.create code.n in
  let fixups = lazy (fixups_for code ops) in
  Array.iteri
    (fun i p ->
      if not (Tableau.postselect_pauli tab p ~outcome:false) then begin
        (* deterministic −1: flip it with the i-th fix-up *)
        Tableau.apply_pauli tab (Lazy.force fixups).(i);
        if not (Tableau.postselect_pauli tab p ~outcome:false) then
          fail "%s: cannot project onto +1 eigenspace of %s" code.name
            (Pauli.to_string p)
      end)
    ops;
  tab

let prepare_logical_zero code =
  prepare_eigenstate code (Array.append code.generators code.logical_z)

let prepare_logical_plus code =
  prepare_eigenstate code (Array.append code.generators code.logical_x)

let encoding_circuit_via_measurement code =
  let n = code.n in
  if code.k = 0 then fail "%s: nothing to encode" code.name;
  let ops = Array.append code.generators code.logical_z in
  Array.iter
    (fun op ->
      if Pauli.phase op <> 0 then
        fail "%s: encoding needs +1-phase operators" code.name)
    ops;
  (* Fix-up Paulis: D_i anticommutes with ops_i and commutes with
     every other measured operator.  With variables v = (x_D | z_D),
     the symplectic constraint ⟨op_j, D⟩ = δ_ij reads
     (z_j | x_j) · v = δ_ij — a full-rank linear system because the
     measured operators are independent. *)
  let constraint_matrix =
    Mat.of_rows
      (Array.to_list
         (Array.map
            (fun op -> Bitvec.append (Pauli.z_bits op) (Pauli.x_bits op))
            ops))
  in
  let fixups =
    Array.init (Array.length ops) (fun i ->
        let rhs = Bitvec.create (Array.length ops) in
        Bitvec.set rhs i true;
        match Mat.solve constraint_matrix rhs with
        | Some v ->
          Pauli.of_bits
            ~x:(Bitvec.sub v ~pos:0 ~len:n)
            ~z:(Bitvec.sub v ~pos:n ~len:n)
            ()
        | None -> fail "%s: no fix-up operator (dependent set?)" code.name)
  in
  let anc = n in
  let c = ref (Circuit.create ~num_cbits:(Array.length ops) ~num_qubits:(n + 1) ()) in
  let add i = c := Circuit.add !c i in
  Array.iteri
    (fun i op ->
      add (Circuit.Gate (Circuit.H anc));
      for q = 0 to n - 1 do
        match Pauli.letter op q with
        | Pauli.I -> ()
        | Pauli.X -> add (Circuit.Gate (Circuit.Cnot (anc, q)))
        | Pauli.Z -> add (Circuit.Gate (Circuit.Cz (anc, q)))
        | Pauli.Y ->
          (* controlled-Y = S_q · CNOT · S†_q *)
          add (Circuit.Gate (Circuit.Sdg q));
          add (Circuit.Gate (Circuit.Cnot (anc, q)));
          add (Circuit.Gate (Circuit.S q))
      done;
      add (Circuit.Gate (Circuit.H anc));
      add (Circuit.Measure { qubit = anc; cbit = i });
      add (Circuit.Reset anc))
    ops;
  Array.iteri
    (fun i d ->
      for q = 0 to n - 1 do
        match Pauli.letter d q with
        | Pauli.I -> ()
        | Pauli.X -> add (Circuit.Cond { cbit = i; gate = Circuit.X q })
        | Pauli.Y -> add (Circuit.Cond { cbit = i; gate = Circuit.Y q })
        | Pauli.Z -> add (Circuit.Cond { cbit = i; gate = Circuit.Z q })
      done)
    fixups;
  !c

(* Filled lazily and reachable from worker domains (through [Ft.Sim]
   and [Ft.Shor_ec]), so every access holds the lock; a decoder, once
   built, is read-only and safe to share. *)
let default_decoders : (string, decoder) Hashtbl.t = Hashtbl.create 8
let default_decoders_lock = Mutex.create ()

let register_default_decoder code d =
  Mutex.protect default_decoders_lock (fun () ->
      Hashtbl.replace default_decoders code.name d)

let default_decoder code =
  Mutex.protect default_decoders_lock (fun () ->
      match Hashtbl.find_opt default_decoders code.name with
      | Some d -> d
      | None ->
        let d = lookup_decoder code in
        Hashtbl.add default_decoders code.name d;
        d)

let ideal_recover ?decoder code tab rng =
  let d = match decoder with Some d -> d | None -> default_decoder code in
  let s = Bitvec.create (Array.length code.generators) in
  Array.iteri
    (fun i g -> if Tableau.measure_pauli tab rng g then Bitvec.set s i true)
    code.generators;
  (match decode d s with
  | Some c when Pauli.weight c > 0 -> Tableau.apply_pauli tab c
  | Some _ | None -> ());
  s

let logical_measure_z code tab rng i = Tableau.measure_pauli tab rng code.logical_z.(i)

let embed code ~offset ~total p =
  if Pauli.num_qubits p <> code.n then fail "%s: embed size" code.name;
  if offset < 0 || offset + code.n > total then fail "%s: embed range" code.name;
  let q = ref (Pauli.identity total) in
  for i = 0 to code.n - 1 do
    match Pauli.letter p i with
    | Pauli.I -> ()
    | l -> q := Pauli.mul !q (Pauli.single total (offset + i) l)
  done;
  (* preserve the ±1 phase *)
  if Pauli.phase p = 2 then Pauli.neg !q else !q

let pp fmt code =
  Format.fprintf fmt "[[%d,%d]] %s@." code.n code.k code.name;
  Array.iteri
    (fun i g -> Format.fprintf fmt "  M%d = %s@." (i + 1) (Pauli.to_string g))
    code.generators
