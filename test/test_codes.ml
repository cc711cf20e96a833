open Ftqc
module Code = Codes.Stabilizer_code
module Bitvec = Gf2.Bitvec

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let rng () = Random.State.make [| 31 |]

(* --- Hamming --------------------------------------------------------- *)

let test_hamming_basics () =
  check_int "16 codewords" 16 (List.length Codes.Hamming.codewords);
  check_int "8 even" 8 (List.length Codes.Hamming.even_codewords);
  check_int "8 odd" 8 (List.length Codes.Hamming.odd_codewords);
  check_int "distance 3" 3 Codes.Hamming.minimum_distance;
  (* Eq. 6's codewords are all present *)
  List.iter
    (fun s ->
      check ("codeword " ^ s) true
        (List.exists
           (fun w -> Bitvec.to_string w = s)
           Codes.Hamming.even_codewords))
    [ "0000000"; "0001111"; "0110011"; "0111100"; "1010101"; "1011010";
      "1100110"; "1101001" ]

let test_hamming_decode_all_single_errors () =
  List.iter
    (fun w ->
      for i = 0 to 6 do
        let corrupted = Bitvec.copy w in
        Bitvec.flip corrupted i;
        let fixed, pos = Codes.Hamming.decode corrupted in
        check "single error fixed" true (Bitvec.equal fixed w);
        check "position identified" true (pos = Some i)
      done)
    Codes.Hamming.codewords

let test_hamming_double_error_fails () =
  (* Eq. 12's failure mode: two flips miscorrect to a *different*
     codeword *)
  let w = List.hd Codes.Hamming.codewords in
  let corrupted = Bitvec.copy w in
  Bitvec.flip corrupted 0;
  Bitvec.flip corrupted 1;
  let fixed, _ = Codes.Hamming.decode corrupted in
  check "still a codeword" true (Codes.Hamming.is_codeword fixed);
  check "but the wrong one" false (Bitvec.equal fixed w)

let test_hamming_encode () =
  for x = 0 to 15 do
    let w = Codes.Hamming.encode (Bitvec.of_int ~width:4 x) in
    check "encoded word valid" true (Codes.Hamming.is_codeword w)
  done

(* --- stabilizer codes ------------------------------------------------ *)

let all_codes () =
  [ Codes.Steane.code; Codes.Five_qubit.code; Codes.Shor9.code ]

let test_distances () =
  check_int "steane d=3" 3 (Code.distance Codes.Steane.code);
  check_int "five-qubit d=3" 3 (Code.distance Codes.Five_qubit.code);
  check_int "shor9 d=3" 3 (Code.distance Codes.Shor9.code)

let test_make_validation () =
  let p = Pauli.of_string in
  (* anticommuting generators must be rejected *)
  (try
     ignore
       (Code.make ~name:"bad" ~generators:[ p "XI"; p "ZI" ]
          ~logical_x:[] ~logical_z:[]);
     Alcotest.fail "anticommuting generators accepted"
   with Invalid_argument _ -> ());
  (* dependent generators rejected *)
  (try
     ignore
       (Code.make ~name:"bad2"
          ~generators:[ p "ZZI"; p "IZZ"; p "ZIZ" ]
          ~logical_x:[] ~logical_z:[]);
     Alcotest.fail "dependent generators accepted"
   with Invalid_argument _ -> ());
  (* wrong logical pairing rejected: XX and ZZ commute, so they cannot
     be an X̄/Z̄ pair *)
  try
    ignore
      (Code.make ~name:"bad3" ~generators:[ p "ZZ" ]
         ~logical_x:[ p "XX" ] ~logical_z:[ p "ZZ" ]);
    Alcotest.fail "commuting X̄/Z̄ pair accepted"
  with Invalid_argument _ -> ()

let test_syndromes_identify_single_errors () =
  List.iter
    (fun (code : Code.t) ->
      (* every single-qubit error has a nonzero syndrome, and two
         single-qubit errors share a syndrome only when they are
         equivalent modulo the stabilizer (degeneracy — Shor's code
         has it: Z₁ and Z₂ differ by the generator Z₁Z₂) *)
      let seen : (string, Pauli.t) Hashtbl.t = Hashtbl.create 32 in
      for q = 0 to code.n - 1 do
        List.iter
          (fun l ->
            let e = Pauli.single code.n q l in
            let s = Bitvec.to_string (Code.syndrome code e) in
            check (code.name ^ " nonzero syndrome") true
              (String.contains s '1');
            (match Hashtbl.find_opt seen s with
            | Some e' ->
              check
                (code.name ^ " colliding errors are degenerate")
                true
                (Code.classify code (Pauli.mul e e') = `Stabilizer)
            | None -> Hashtbl.add seen s e))
          [ Pauli.X; Pauli.Y; Pauli.Z ]
      done)
    (all_codes ())

let test_decoder_corrects_weight_one () =
  List.iter
    (fun (code : Code.t) ->
      let d = Code.lookup_decoder code in
      for q = 0 to code.n - 1 do
        List.iter
          (fun l ->
            check
              (code.name ^ " corrects weight 1")
              true
              (Code.correct d code (Pauli.single code.n q l) = `Ok))
          [ Pauli.X; Pauli.Y; Pauli.Z ]
      done)
    (all_codes ())

let test_steane_css_decoder_xz_pairs () =
  let d = Codes.Steane.css_decoder () in
  for a = 0 to 6 do
    for b = 0 to 6 do
      let e = Pauli.mul (Pauli.single 7 a Pauli.X) (Pauli.single 7 b Pauli.Z) in
      check "X_a Z_b corrected" true (Code.correct d Codes.Steane.code e = `Ok)
    done
  done

let test_steane_double_bitflip_is_logical () =
  let d = Codes.Steane.css_decoder () in
  check "XX -> logical error (Eq. 12)" true
    (Code.correct d Codes.Steane.code (Pauli.of_string "XXIIIII")
    = `Logical_error);
  check "ZZ -> logical error (Eq. 13)" true
    (Code.correct d Codes.Steane.code (Pauli.of_string "ZZIIIII")
    = `Logical_error)

let test_classify () =
  let code = Codes.Steane.code in
  check "generator is stabilizer" true
    (Code.classify code code.generators.(0) = `Stabilizer);
  check "product of generators is stabilizer" true
    (Code.classify code (Pauli.mul code.generators.(0) code.generators.(1))
    = `Stabilizer);
  check "logical Z classified logical" true
    (Code.classify code code.logical_z.(0) = `Logical);
  check "weight-3 logical X" true
    (Code.classify code Codes.Steane.logical_x_weight3 = `Logical);
  check "single X detectable" true
    (Code.classify code (Pauli.of_string "XIIIIII") = `Detectable)

let test_encoders_match_codewords () =
  (* Fig. 3 encoder: input a|0>+b|1> becomes a|0bar>+b|1bar> exactly *)
  let sv = Statevec.create 7 in
  Statevec.h sv Codes.Steane.input_qubit;
  ignore (Statevec.run sv (Codes.Steane.encoding_circuit ()));
  let target =
    Statevec.of_amplitudes
      (Array.map2
         (fun a b -> Qmath.Cx.scale (1.0 /. sqrt 2.0) (Qmath.Cx.add a b))
         (Codes.Steane.logical_zero_amplitudes ())
         (Codes.Steane.logical_one_amplitudes ()))
  in
  check "steane encoder exact on |+>" true
    (Statevec.fidelity sv target > 1.0 -. 1e-9);
  (* shor9 encoder produces a state stabilized by all generators *)
  let sv9 = Statevec.create 9 in
  ignore (Statevec.run sv9 (Codes.Shor9.encoding_circuit ()));
  Array.iter
    (fun g ->
      check "shor9 stabilized" true
        (Float.abs (Statevec.expectation sv9 g -. 1.0) < 1e-9))
    Codes.Shor9.code.generators;
  check "shor9 logical Z = +1" true
    (Float.abs (Statevec.expectation sv9 Codes.Shor9.code.logical_z.(0) -. 1.0)
    < 1e-9)

let test_prepare_logical_states () =
  List.iter
    (fun (code : Code.t) ->
      let z = Code.prepare_logical_zero code in
      check (code.name ^ " |0bar> gens") true
        (Array.for_all
           (fun g -> Tableau.expectation z g = Some true)
           code.generators);
      check (code.name ^ " Zbar = +1") true
        (Tableau.expectation z code.logical_z.(0) = Some true);
      let p = Code.prepare_logical_plus code in
      check (code.name ^ " Xbar = +1") true
        (Tableau.expectation p code.logical_x.(0) = Some true))
    (all_codes ())

let test_css_equals_steane () =
  let css = Codes.Css.steane_from_hamming () in
  check_int "css n" 7 css.n;
  check_int "css k" 1 css.k;
  check "same |0bar>" true
    (Tableau.equal_states
       (Code.prepare_logical_zero css)
       (Code.prepare_logical_zero Codes.Steane.code))

let test_css_orthogonality_enforced () =
  let hx = Gf2.Mat.of_int_lists [ [ 0; 1; 1 ]; [ 1; 1; 0 ] ] in
  let hz = Gf2.Mat.of_int_lists [ [ 1; 0; 0 ] ] in
  (match Codes.Css.build ~name:"bad" ~hx ~hz with
  | Ok _ -> Alcotest.fail "non-orthogonal CSS accepted"
  | Error (Codes.Css.Non_orthogonal { x_row; z_row }) ->
    (* row 0 of hx is orthogonal to hz; row 1 is the offender *)
    check_int "offending hx row" 1 x_row;
    check_int "offending hz row" 0 z_row
  | Error e ->
    Alcotest.failf "wrong rejection reason: %s" (Codes.Css.error_to_string e));
  (* the raising entry point reports the same structured reason *)
  (try
     ignore (Codes.Css.make ~name:"bad" ~hx ~hz);
     Alcotest.fail "non-orthogonal CSS accepted by make"
   with
  | Codes.Css.Invalid_css
      { name = "bad"; error = Codes.Css.Non_orthogonal _ } ->
    ());
  (* width mismatch is its own structured reason *)
  match
    Codes.Css.build ~name:"bad" ~hx
      ~hz:(Gf2.Mat.of_int_lists [ [ 1; 0 ] ])
  with
  | Error (Codes.Css.Width_mismatch { x_cols = 3; z_cols = 2 }) -> ()
  | Ok _ | Error _ -> Alcotest.fail "width mismatch not reported"

let test_concatenated_steane () =
  let l2 = Codes.Concat.steane_level 2 in
  check_int "level-2 n" 49 l2.n;
  check_int "level-2 k" 1 l2.k;
  check_int "level-2 generators" 48 (Array.length l2.generators);
  let tab = Code.prepare_logical_zero l2 in
  check "level-2 |0bar>" true
    (Tableau.expectation tab l2.logical_z.(0) = Some true);
  (* weight-1 errors corrected by the generic decoder *)
  let d = Code.lookup_decoder ~max_weight:1 l2 in
  let r = rng () in
  for _ = 1 to 10 do
    let q = Random.State.int r 49 in
    let l = [| Pauli.X; Pauli.Y; Pauli.Z |].(Random.State.int r 3) in
    check "level-2 corrects weight 1" true
      (Code.correct d l2 (Pauli.single 49 q l) = `Ok)
  done

let test_ideal_recover_roundtrip () =
  let r = rng () in
  List.iter
    (fun (code : Code.t) ->
      for _ = 1 to 30 do
        let tab = Code.prepare_logical_zero code in
        let q = Random.State.int r code.n in
        let l = [| Pauli.X; Pauli.Y; Pauli.Z |].(Random.State.int r 3) in
        Tableau.apply_pauli tab (Pauli.single code.n q l);
        ignore (Code.ideal_recover code tab r);
        check (code.name ^ " recovery") false
          (Code.logical_measure_z code tab r 0)
      done)
    (all_codes ())

let test_embed () =
  let code = Codes.Steane.code in
  let e = Code.embed code ~offset:3 ~total:12 (Pauli.of_string "XIIIIIZ") in
  check "embedded letters" true
    (Pauli.letter e 3 = Pauli.X && Pauli.letter e 9 = Pauli.Z
   && Pauli.letter e 0 = Pauli.I && Pauli.weight e = 2)

(* property: every single-qubit error, after CSS decoding, leaves the
   Steane block in the codespace with no logical flip *)
let prop_steane_random_weight1 =
  QCheck.Test.make ~name:"steane corrects random weight-1 + stabilizer noise"
    ~count:100
    (QCheck.make
       ~print:(fun (q, l, g) -> Printf.sprintf "q%d l%d g%d" q l g)
       QCheck.Gen.(triple (int_bound 6) (int_bound 2) (int_bound 5)))
    (fun (q, l, g) ->
      let code = Codes.Steane.code in
      let d = Code.default_decoder code in
      let letter = [| Pauli.X; Pauli.Y; Pauli.Z |].(l) in
      (* error = single letter times a random stabilizer generator:
         must still be handled (degeneracy) *)
      let e = Pauli.mul (Pauli.single 7 q letter) code.generators.(g) in
      Code.correct d code e = `Ok)

(* The default-decoder table is filled lazily and reachable from worker
   domains: four domains first-touching a code nobody has used yet, at
   once, must all get a decoder that decodes like a lone lookup
   decoder. *)
let test_default_decoder_first_touch_from_domains () =
  let code = { Codes.Five_qubit.code with name = "five-qubit, first touch" } in
  let syndromes =
    List.init 16 (fun s -> Bitvec.of_int ~width:4 s)
  in
  let decode_all d =
    List.map
      (fun s -> Option.map Pauli.to_string (Code.decode d s))
      syndromes
  in
  let expected = decode_all (Code.lookup_decoder code) in
  let ready = Atomic.make 0 in
  let touch () =
    Atomic.incr ready;
    while Atomic.get ready < 4 do Domain.cpu_relax () done;
    decode_all (Code.default_decoder code)
  in
  let results = List.map Domain.join (List.init 4 (fun _ -> Domain.spawn touch)) in
  List.iteri
    (fun i got ->
      check (Printf.sprintf "domain %d decodes like a lone decoder" i) true
        (got = expected))
    results

let suites =
  [ ( "codes.hamming",
      [ Alcotest.test_case "basics" `Quick test_hamming_basics;
        Alcotest.test_case "single-error decode" `Quick
          test_hamming_decode_all_single_errors;
        Alcotest.test_case "double-error miscorrect" `Quick
          test_hamming_double_error_fails;
        Alcotest.test_case "encode" `Quick test_hamming_encode ] );
    ( "codes.stabilizer",
      [ Alcotest.test_case "distances" `Quick test_distances;
        Alcotest.test_case "make validation" `Quick test_make_validation;
        Alcotest.test_case "syndromes identify errors" `Quick
          test_syndromes_identify_single_errors;
        Alcotest.test_case "decoder corrects weight 1" `Quick
          test_decoder_corrects_weight_one;
        Alcotest.test_case "css decoder X+Z pairs" `Quick
          test_steane_css_decoder_xz_pairs;
        Alcotest.test_case "double flips are logical" `Quick
          test_steane_double_bitflip_is_logical;
        Alcotest.test_case "classify" `Quick test_classify;
        Alcotest.test_case "encoders" `Quick test_encoders_match_codewords;
        Alcotest.test_case "logical state prep" `Quick
          test_prepare_logical_states;
        Alcotest.test_case "css = steane" `Quick test_css_equals_steane;
        Alcotest.test_case "css orthogonality" `Quick
          test_css_orthogonality_enforced;
        Alcotest.test_case "concatenated level 2" `Quick
          test_concatenated_steane;
        Alcotest.test_case "ideal recovery" `Quick test_ideal_recover_roundtrip;
        Alcotest.test_case "embed" `Quick test_embed;
        Alcotest.test_case "default decoder first touch from domains" `Quick
          test_default_decoder_first_touch_from_domains;
        QCheck_alcotest.to_alcotest prop_steane_random_weight1 ] ) ]
