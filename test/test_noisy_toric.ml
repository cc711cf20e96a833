open Ftqc
module Mg = Toric.Match_graph
module Bitvec = Gf2.Bitvec
module Lattice = Toric.Lattice

let check = Alcotest.(check bool)
let rng () = Random.State.make [| 103 |]

(* --- generic matching graph -------------------------------------------- *)

let path_graph n =
  let g = Mg.create ~num_nodes:n in
  for i = 0 to n - 2 do
    ignore (Mg.add_edge g i (i + 1))
  done;
  g

(* the last decode's edge set, indexed by edge id *)
let selection g ws =
  let selected = Array.make (Mg.num_edges g) false in
  for i = 0 to Mg.num_selected ws - 1 do
    selected.(Mg.selected_edge ws i) <- true
  done;
  selected

(* a one-off decode on a fresh workspace *)
let decode g ~defects =
  let ws = Mg.workspace g in
  Mg.decode ws ~defects;
  selection g ws

let boundary g selected =
  let marks = Array.make (Mg.num_nodes g) false in
  Array.iteri
    (fun e on ->
      if on then begin
        let a, b = Mg.endpoints g e in
        marks.(a) <- not marks.(a);
        marks.(b) <- not marks.(b)
      end)
    selected;
  marks

let test_path_matching () =
  let g = path_graph 10 in
  let defects = Array.make 10 false in
  defects.(2) <- true;
  defects.(7) <- true;
  let sel = decode g ~defects in
  check "boundary = defects" true (boundary g sel = defects);
  (* the unique path between 2 and 7 has 5 edges *)
  let count = Array.fold_left (fun a b -> if b then a + 1 else a) 0 sel in
  Alcotest.(check int) "path length" 5 count

let test_multi_pair_matching () =
  let r = rng () in
  let g = path_graph 30 in
  for _ = 1 to 50 do
    let defects = Array.make 30 false in
    (* random even defect set *)
    let k = 2 * (1 + Random.State.int r 5) in
    let placed = ref 0 in
    while !placed < k do
      let i = Random.State.int r 30 in
      if not defects.(i) then begin
        defects.(i) <- true;
        incr placed
      end
    done;
    let sel = decode g ~defects in
    check "boundary matches defects" true (boundary g sel = defects)
  done

let test_odd_parity_rejected () =
  let g = path_graph 4 in
  let ws = Mg.workspace g in
  let defects = Array.make 4 false in
  defects.(1) <- true;
  (try
     Mg.decode ws ~defects;
     Alcotest.fail "odd parity accepted"
   with Invalid_argument _ -> ());
  (* the aborted decode leaves nothing behind in the workspace *)
  defects.(3) <- true;
  Mg.decode ws ~defects;
  check "workspace reusable after a rejected decode" true
    (boundary g (selection g ws) = defects)

let test_disconnected_components () =
  let g = Mg.create ~num_nodes:6 in
  ignore (Mg.add_edge g 0 1);
  ignore (Mg.add_edge g 1 2);
  ignore (Mg.add_edge g 3 4);
  ignore (Mg.add_edge g 4 5);
  let defects = [| true; false; true; true; false; true |] in
  let sel = decode g ~defects in
  check "per-component pairing" true (boundary g sel = defects)

(* --- identity with the list-based decoder -------------------------------

   [Uf_oracle] is the decoder as it was before workspaces.  Each
   (lattice size, layers) pair gets one workspace, reused by every case
   of both properties, so a decode that leaves state behind fails. *)

let identity_cases = Hashtbl.create 16

let identity_case ~l ~layers =
  match Hashtbl.find_opt identity_cases (l, layers) with
  | Some c -> c
  | None ->
    let lat = Lattice.create l in
    let graph = Toric.Decoder.graph ~layers lat in
    let g = Toric.Decoder.match_graph graph in
    let c =
      ( g,
        Uf_oracle.of_graph g,
        Mg.workspace g,
        Toric.Decoder.workspace graph )
    in
    Hashtbl.add identity_cases (l, layers) c;
    c

let same_as_oracle ~l ~layers defects =
  let g, og, ws, _ = identity_case ~l ~layers in
  let expected = Uf_oracle.decode og ~defects in
  Mg.decode ws ~defects;
  selection g ws = expected

(* the oracle's 2-D correction: edge ids are qubit indices there *)
let oracle_correction lat syn =
  let _, og, _, _ = identity_case ~l:(Lattice.size lat) ~layers:1 in
  let c = Bitvec.create (Lattice.num_qubits lat) in
  Array.iteri
    (fun e on -> if on then Bitvec.set c e true)
    (Uf_oracle.decode og
       ~defects:(Array.init (Lattice.num_plaquettes lat) (Bitvec.get syn)));
  c

let prop_identity_toric =
  QCheck.Test.make ~name:"workspace decode = list-based decode (2-D)"
    ~count:400
    (QCheck.make
       ~print:(fun (l, p, seed) -> Printf.sprintf "l=%d p=%g seed=%d" l p seed)
       QCheck.Gen.(triple (int_range 2 12) (float_range 0.0 0.35) int))
    (fun (l, p, seed) ->
      let lat = Lattice.create l in
      let rng = Random.State.make [| seed |] in
      let error = Bitvec.create (Lattice.num_qubits lat) in
      Bitvec.randomize ~p rng error;
      let syn = Lattice.syndrome lat error in
      let defects = Array.init (Lattice.num_plaquettes lat) (Bitvec.get syn) in
      let _, _, _, dws = identity_case ~l ~layers:1 in
      let expected = oracle_correction lat syn in
      let into = Bitvec.create (Lattice.num_qubits lat) in
      Toric.Decoder.decode_into dws syn into;
      same_as_oracle ~l ~layers:1 defects
      && Bitvec.equal expected into
      && Bitvec.equal expected (Toric.Decoder.decode lat syn))

(* random even-parity detection-event sets on the space-time graphs of
   [Noisy_memory] ([rounds] layers) and [Circuit_memory] ([rounds + 1]) *)
let prop_identity_space_time =
  QCheck.Test.make ~name:"workspace decode = list-based decode (space-time)"
    ~count:300
    (QCheck.make
       ~print:(fun (l, layers, p, seed) ->
         Printf.sprintf "l=%d layers=%d p=%g seed=%d" l layers p seed)
       QCheck.Gen.(
         quad (int_range 3 7) (int_range 2 6) (float_range 0.0 0.35) int))
    (fun (l, layers, p, seed) ->
      let g, _, _, _ = identity_case ~l ~layers in
      let n = Mg.num_nodes g in
      let rng = Random.State.make [| seed |] in
      let defects = Array.init n (fun _ -> Random.State.float rng 1.0 < p) in
      let odd = Array.fold_left (fun a d -> a <> d) false defects in
      (* the graph is connected: one flip makes the parity even *)
      if odd then begin
        let i = Random.State.int rng n in
        defects.(i) <- not defects.(i)
      end;
      same_as_oracle ~l ~layers defects)

(* --- allocation -------------------------------------------------------- *)

let random_syndromes lat ~count =
  let rng = Random.State.make [| Lattice.size lat |] in
  let error = Bitvec.create (Lattice.num_qubits lat) in
  List.init count (fun _ ->
      Bitvec.randomize ~p:0.08 rng error;
      Lattice.syndrome lat error)

let test_workspace_decode_allocates_nothing () =
  List.iter
    (fun l ->
      let lat = Lattice.create l in
      let ws = Toric.Decoder.workspace (Toric.Decoder.graph lat) in
      let correction = Bitvec.create (Lattice.num_qubits lat) in
      List.iter
        (fun syn ->
          let w0 = Gc.minor_words () in
          Toric.Decoder.decode_into ws syn correction;
          let w1 = Gc.minor_words () in
          Alcotest.(check (float 0.0))
            (Printf.sprintf "minor words per workspace decode at L=%d" l)
            0.0 (w1 -. w0))
        (random_syndromes lat ~count:50))
    [ 5; 7; 9 ]

let test_decode_allocates_only_its_result () =
  List.iter
    (fun l ->
      let lat = Lattice.create l in
      let syns = random_syndromes lat ~count:50 in
      (* the first call at a size makes this domain's workspace *)
      ignore (Toric.Decoder.decode lat (List.hd syns));
      List.iter
        (fun syn ->
          let w0 = Gc.minor_words () in
          let c = Toric.Decoder.decode lat syn in
          let w1 = Gc.minor_words () in
          check
            (Printf.sprintf "Decoder.decode at L=%d allocates only its Bitvec" l)
            true
            (w1 -. w0 <= float_of_int (Obj.reachable_words (Obj.repr c))))
        syns)
    [ 5; 7; 9 ]

(* Worker domains first-touching a lattice size at once each build their
   own workspace; every domain must decode exactly as a lone caller. *)
let test_first_touch_from_domains () =
  let l = 13 in
  let lat = Lattice.create l in
  let syns = random_syndromes lat ~count:40 in
  let expected = List.map (oracle_correction lat) syns in
  let ready = Atomic.make 0 in
  let touch () =
    Atomic.incr ready;
    while Atomic.get ready < 4 do Domain.cpu_relax () done;
    List.map (fun s -> Toric.Decoder.decode lat s) syns
  in
  let results = List.map Domain.join (List.init 4 (fun _ -> Domain.spawn touch)) in
  List.iteri
    (fun d got ->
      check
        (Printf.sprintf "domain %d decodes like the list-based decoder" d)
        true
        (List.for_all2 Bitvec.equal expected got))
    results

(* Threads share their domain's workspaces, and a thread can be switched
   out mid-decode: two threads decoding at once must each still get the
   list-based decoder's answers. *)
let test_threads_share_a_domain () =
  let l = 12 in
  let lat = Lattice.create l in
  let syns = random_syndromes lat ~count:200 in
  let expected = List.map (oracle_correction lat) syns in
  (* long enough for the runtime's thread switches to land inside
     decodes *)
  let deadline = Unix.gettimeofday () +. 0.3 in
  let ok = Atomic.make true in
  let work () =
    while Unix.gettimeofday () < deadline do
      List.iter2
        (fun s c ->
          if not (Bitvec.equal c (Toric.Decoder.decode lat s)) then
            Atomic.set ok false)
        syns expected
    done
  in
  let threads = List.init 2 (fun _ -> Thread.create work ()) in
  List.iter Thread.join threads;
  check "threads of one domain decode like the list-based decoder" true
    (Atomic.get ok)

(* --- noisy-measurement memory ------------------------------------------ *)

let test_perfect_measurement_limit () =
  (* with q = 0 and a couple of rounds, results behave like the 2-D
     memory at the accumulated error rate *)
  let r = rng () in
  let res = Toric.Noisy_memory.run ~l:6 ~rounds:2 ~p:0.01 ~q:0.0 ~trials:2000 r in
  check "low failure at p=0.01, q=0" true (res.rate < 0.02)

let test_measurement_errors_tolerated () =
  (* pure measurement noise at a below-threshold rate is almost always
     diagnosed as such (matched through temporal edges); it can only
     hurt indirectly, via spatial miscorrections, which are rare *)
  let r = rng () in
  let pure_meas =
    Toric.Noisy_memory.run ~l:6 ~rounds:6 ~p:0.0 ~q:0.02 ~trials:2000 r
  in
  let both =
    Toric.Noisy_memory.run ~l:6 ~rounds:6 ~p:0.02 ~q:0.02 ~trials:2000 r
  in
  check "pure measurement noise mostly harmless" true
    (pure_meas.rate < 0.01);
  check "much safer than data+measurement noise" true
    (pure_meas.failures * 3 < max 1 both.failures)

let test_threshold_behaviour () =
  let r = rng () in
  let low_small = Toric.Noisy_memory.run ~l:4 ~rounds:4 ~p:0.01 ~q:0.01 ~trials:2000 r in
  let low_big = Toric.Noisy_memory.run ~l:8 ~rounds:8 ~p:0.01 ~q:0.01 ~trials:2000 r in
  check "below threshold bigger is better" true
    (low_big.failures <= low_small.failures);
  let hi_small = Toric.Noisy_memory.run ~l:4 ~rounds:4 ~p:0.05 ~q:0.05 ~trials:1000 r in
  let hi_big = Toric.Noisy_memory.run ~l:8 ~rounds:8 ~p:0.05 ~q:0.05 ~trials:1000 r in
  check "above threshold bigger is worse" true
    (hi_big.failures >= hi_small.failures)

(* --- circuit-level memory ------------------------------------------------ *)

let test_circuit_memory_noiseless () =
  let r = rng () in
  let res =
    Toric.Circuit_memory.run ~l:3 ~rounds:3 ~noise:Ft.Noise.none ~trials:20 r
  in
  check "noise-free circuit memory never fails" true (res.failures = 0)

let test_circuit_memory_low_noise () =
  let r = rng () in
  let res =
    Toric.Circuit_memory.run ~l:3 ~rounds:3 ~noise:(Ft.Noise.uniform 1e-3)
      ~trials:300 r
  in
  check "low-noise circuit memory mostly survives" true (res.rate < 0.02)

let test_circuit_memory_protected_phase () =
  let r = rng () in
  let low_small =
    Toric.Circuit_memory.run ~l:3 ~rounds:3 ~noise:(Ft.Noise.uniform 3e-3)
      ~trials:400 r
  in
  let low_big =
    Toric.Circuit_memory.run ~l:5 ~rounds:5 ~noise:(Ft.Noise.uniform 3e-3)
      ~trials:400 r
  in
  check "below threshold bigger lattice no worse" true
    (low_big.failures <= low_small.failures + 2)

let suites =
  [ ( "toric.match_graph",
      [ Alcotest.test_case "path matching" `Quick test_path_matching;
        Alcotest.test_case "multi-pair matching" `Quick
          test_multi_pair_matching;
        Alcotest.test_case "odd parity rejected" `Quick
          test_odd_parity_rejected;
        Alcotest.test_case "disconnected components" `Quick
          test_disconnected_components;
        QCheck_alcotest.to_alcotest prop_identity_toric;
        QCheck_alcotest.to_alcotest prop_identity_space_time;
        Alcotest.test_case "workspace decode allocates nothing" `Quick
          test_workspace_decode_allocates_nothing;
        Alcotest.test_case "decode allocates only its result" `Quick
          test_decode_allocates_only_its_result;
        Alcotest.test_case "first touch from four domains" `Quick
          test_first_touch_from_domains;
        Alcotest.test_case "threads sharing a domain" `Quick
          test_threads_share_a_domain ] );
    ( "toric.noisy_memory",
      [ Alcotest.test_case "perfect measurement limit" `Quick
          test_perfect_measurement_limit;
        Alcotest.test_case "measurement noise alone harmless" `Quick
          test_measurement_errors_tolerated;
        Alcotest.test_case "threshold behaviour" `Slow
          test_threshold_behaviour ] );
    ( "toric.circuit_memory",
      [ Alcotest.test_case "noise-free" `Quick test_circuit_memory_noiseless;
        Alcotest.test_case "low noise" `Quick test_circuit_memory_low_noise;
        Alcotest.test_case "protected phase" `Slow
          test_circuit_memory_protected_phase ] ) ]
