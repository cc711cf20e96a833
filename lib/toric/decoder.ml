module Bitvec = Gf2.Bitvec

(* Union-find decoding is the generic engine (Match_graph) run on the
   lattice's plaquette-adjacency graph, or on [layers] stacked copies
   of it joined by temporal edges for noisy syndrome histories.
   Spatial edges are added in qubit order, so in the 2-D graph edge
   ids coincide with qubit indices. *)

type graph = { g : Match_graph.t; nq : int; edge_qubit : int array }

let graph ?(layers = 1) lat =
  if layers < 1 then invalid_arg "Decoder.graph: layers >= 1";
  let nq = Lattice.num_qubits lat and np = Lattice.num_plaquettes lat in
  let g = Match_graph.create ~num_nodes:(np * layers) in
  (* edge id -> qubit, or -1 for a temporal (measurement-error) edge *)
  let edge_qubit = Array.make ((layers * nq) + ((layers - 1) * np)) (-1) in
  for t = 0 to layers - 1 do
    for e = 0 to nq - 1 do
      let a, b = Lattice.edge_endpoints lat e in
      edge_qubit.(Match_graph.add_edge g ((t * np) + a) ((t * np) + b)) <- e
    done;
    if t < layers - 1 then
      for p = 0 to np - 1 do
        ignore (Match_graph.add_edge g ((t * np) + p) (((t + 1) * np) + p))
      done
  done;
  { g; nq; edge_qubit }

let match_graph gr = gr.g

type workspace = {
  w_nq : int;
  w_edge_qubit : int array;
  mg : Match_graph.workspace;
  defects : bool array;  (* a 2-D syndrome, unpacked *)
}

let workspace gr =
  let mg = Match_graph.workspace gr.g in
  { w_nq = gr.nq;
    w_edge_qubit = gr.edge_qubit;
    mg;
    defects = Array.make (Match_graph.num_nodes gr.g) false }

let correct ws ~defects correction =
  if Bitvec.length correction <> ws.w_nq then invalid_arg "Decoder.correct";
  Match_graph.decode ws.mg ~defects;
  Bitvec.clear correction;
  for i = 0 to Match_graph.num_selected ws.mg - 1 do
    let q = ws.w_edge_qubit.(Match_graph.selected_edge ws.mg i) in
    (* a temporal edge is a diagnosed measurement error: no qubit *)
    if q >= 0 then Bitvec.flip correction q
  done

let decode_into ws syndrome correction =
  if Bitvec.length syndrome <> Array.length ws.defects then
    invalid_arg "Decoder.decode";
  Bitvec.unpack_into syndrome ws.defects;
  correct ws ~defects:ws.defects correction

(* One 2-D workspace per lattice size and domain, made on first use:
   domain-local, so worker domains never share scratch.  Threads of one
   domain do share it, and one can be switched out mid-decode, so a
   workspace is claimed for the length of a decode; a thread that finds
   it claimed decodes on a fresh one. *)
type cached = { size : int; ws : workspace; mutable busy : bool }

let per_domain : cached list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let rec find_size l = function
  | [] -> raise Not_found
  | c :: rest -> if c.size = l then c else find_size l rest

let decode lat syndrome =
  let l = Lattice.size lat in
  let cache = Domain.DLS.get per_domain in
  let c =
    match find_size l !cache with
    | c -> c
    | exception Not_found ->
      let c = { size = l; ws = workspace (graph lat); busy = false } in
      cache := c :: !cache;
      c
  in
  let correction = Bitvec.create (Lattice.num_qubits lat) in
  if c.busy then decode_into (workspace (graph lat)) syndrome correction
  else begin
    c.busy <- true;
    match decode_into c.ws syndrome correction with
    | () -> c.busy <- false
    | exception e ->
      c.busy <- false;
      raise e
  end;
  correction

(* --- greedy baseline ------------------------------------------------ *)

let torus_dist l a b =
  let d = abs (a - b) in
  min d (l - d)

let geodesic lat correction (x1, y1) (x2, y2) =
  let l = Lattice.size lat in
  (* walk in x then in y along shortest wraps *)
  let step_x = if ((x2 - x1) mod l + l) mod l <= l / 2 then 1 else -1 in
  let x = ref x1 in
  while !x <> x2 do
    let vx = if step_x = 1 then !x + 1 else !x in
    Bitvec.flip correction (Lattice.v_edge lat ~x:vx ~y:y1);
    x := (!x + step_x + l) mod l
  done;
  let step_y = if ((y2 - y1) mod l + l) mod l <= l / 2 then 1 else -1 in
  let y = ref y1 in
  while !y <> y2 do
    let hy = if step_y = 1 then !y + 1 else !y in
    Bitvec.flip correction (Lattice.h_edge lat ~x:x2 ~y:hy);
    y := (!y + step_y + l) mod l
  done

let greedy_decode lat syndrome =
  let l = Lattice.size lat in
  let defects = ref [] in
  Bitvec.iteri
    (fun i set -> if set then defects := (i mod l, i / l) :: !defects)
    syndrome;
  let correction = Bitvec.create (Lattice.num_qubits lat) in
  let rec pair = function
    | [] -> ()
    | [ _ ] -> invalid_arg "greedy_decode: odd number of defects"
    | (d :: _) as ds ->
      let rest = List.tl ds in
      let best =
        List.fold_left
          (fun (bd, bdist) d2 ->
            let dist =
              torus_dist l (fst d) (fst d2) + torus_dist l (snd d) (snd d2)
            in
            if dist < bdist then (d2, dist) else (bd, bdist))
          (List.hd rest, max_int) rest
      in
      let mate = fst best in
      geodesic lat correction d mate;
      pair (List.filter (fun x -> x <> d && x <> mate) ds)
  in
  pair !defects;
  correction
