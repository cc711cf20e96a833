(* The compute workloads: canonical estimator requests executed in this
   process through [Svc.Exec.execute], the request semantics the
   service and the experiments drivers share.  Layers are timed from
   outside, by replaying their public functions on the workload's own
   program and RNG keys. *)

open Util
module Mc = Ftqc.Mc
module Svc = Ftqc.Svc
module P = Svc.Protocol
module Frame = Ftqc.Frame
module Toric = Ftqc.Toric
module Bitvec = Ftqc.Gf2.Bitvec
module Pauli_frame = Ftqc.Codes.Pauli_frame
module Trace = Ftqc.Obs.Trace

type spec = {
  name : string;
  reqs : P.estimator list;  (** the distinct requests of one run *)
  minimal : P.estimator;  (** the set-up op: one tile per cell *)
  journaled : bool;
      (** each op runs under a fresh file-backed campaign ledger, which
          the hit leg then loads and replays *)
}

(* Request sizes.  Each op is large enough that per-call overheads
   (domain spawn, warmup tile) stay a small share of it. *)
let toric_decode seed =
  let req i trials =
    P.Toric_scan
      { ls = [ 5; 7; 9 ]; ps = [ 0.05; 0.08 ]; trials;
        seed = Mc.Rng.derive seed [ 1; i ]; engine = `Batch; tile_width = 64 }
  in
  { name = "toric-decode"; reqs = [ req 0 12_500; req 1 12_500 ];
    minimal = req 2 64; journaled = false }

let steane_concat seed =
  let req i trials =
    P.Steane_memory
      { level = 2; eps = 0.01; rounds = 1; trials;
        seed = Mc.Rng.derive seed [ 2; i ]; engine = `Batch; tile_width = 256 }
  in
  { name = "steane-concat"; reqs = [ req 0 524_288; req 1 524_288 ];
    minimal = req 2 256; journaled = false }

(* 5120 tiles of 64 shots: well past the ~3k-chunk knee where each
   checkpoint flush (a rewrite of the whole ledger) dominates. *)
let deep_campaign seed =
  let req i trials =
    P.Toric_memory
      { l = 3; p = ldexp 1.0 (-12); trials;
        seed = Mc.Rng.derive seed [ 3; i ]; engine = `Batch; tile_width = 64 }
  in
  { name = "deep-campaign"; reqs = [ req 0 (5120 * 64); req 1 (5120 * 64) ];
    minimal = req 2 64; journaled = true }

let shots_of (est : P.estimator) =
  match est with
  | Toric_scan { ls; ps; trials; _ } ->
    trials * List.length ls * List.length ps
  | Toric_memory { trials; _ } | Steane_memory { trials; _ } -> trials
  | _ -> invalid_arg "shots_of"

let payload_string p = Json.to_string (P.payload_to_json p)

(* [f] over the cells of a toric scan, in [Svc.Exec]'s order (p outer,
   l inner) with its per-cell seeds, so results line up with the
   payload's cells. *)
let scan_cells ~ls ~ps ~seed f =
  List.concat
    (List.mapi
       (fun pi p ->
         List.map (fun l -> f ~l ~p ~seed:(Mc.Rng.derive seed [ 10; l; pi ])) ls)
       ps)

let cell_failures (p : P.payload) =
  match p with
  | Estimate c -> [ c.estimate.Mc.Stats.failures ]
  | Cells cs | Fit { cells = cs; _ } ->
    List.map (fun (c : P.cell) -> c.estimate.Mc.Stats.failures) cs

(* The scalar-engine cross-check: the same sampled noise, every shot
   re-judged by the per-shot reference pipeline.  Runs under the
   ambient campaign store, whose job keys match the batch run's. *)
let scalar_failures ~domains (est : P.estimator) =
  match est with
  | Toric_scan { ls; ps; trials; seed; tile_width; _ } ->
    scan_cells ~ls ~ps ~seed (fun ~l ~p ~seed ->
        (Toric.Memory.run_batch ~domains ~engine:`Scalar ~tile_width ~l ~p ~trials
           ~seed ())
          .failures)
  | Toric_memory { l; p; trials; seed; tile_width; _ } ->
    [ (Toric.Memory.run_batch ~domains ~engine:`Scalar ~tile_width ~l ~p
         ~trials ~seed ())
        .failures ]
  | Steane_memory { level; eps; rounds; trials; seed; tile_width; _ } ->
    [ (Pauli_frame.memory_failure_batch ~domains ~engine:`Scalar ~tile_width
         ~level ~eps ~rounds ~trials ~seed ())
        .Mc.Stats.failures ]
  | Css_memory { code; eps; rounds; trials; seed; tile_width; _ } ->
    [ (Ftqc.Csskit.Memory.memory_failure_batch ~domains ~engine:`Scalar
         ~tile_width (Ftqc.Csskit.Zoo.get code) ~eps ~rounds ~trials ~seed ())
        .Mc.Stats.failures ]
  | _ -> invalid_arg "scalar_failures"

let ok_exn = function Ok x -> x | Error msg -> failwith msg

let with_store store f =
  Mc.Campaign.set_current (Some store);
  Fun.protect ~finally:(fun () -> Mc.Campaign.set_current None) f

(* A fresh file-backed store.  Timed ops keep the default flush
   cadence; ledgers written only to be replayed later pass a cadence
   past their chunk count and are flushed once, at the end. *)
let fresh_store ?flush_every file =
  remove_if_exists file;
  ok_exn (Mc.Campaign.create ?flush_every file)

(* --------------------------------------------------------------- ops *)

type op = {
  req : int;
  wall : float;  (** seconds, the timed region *)
  out : string;  (** payload JSON *)
  minor : float;  (** minor words allocated during the op *)
  majors : int;  (** major collections during the op *)
  hits : (float * float * string) list;
      (** journaled ops: [resumes] x (load+replay s, load s, replayed payload) *)
}

type run_opts = {
  domains : int;
  workdir : string;
  inject : float;  (** extra delay, as a share of the op's wall *)
  obs : Ftqc.Obs.t;
}

let exec o est = Svc.Exec.execute ~domains:o.domains ~obs:o.obs est

let ledger_file o name = Filename.concat o.workdir (name ^ ".ckpt")

(* Load a finished ledger and answer the request from it.  A replay
   samples nothing, so it runs on one domain: spawning a second one
   would only add scheduling noise to a millisecond-scale figure.
   Callers settle the heap first ([Gc.full_major]), so a replay does
   not pay the collection debt of the ops before it. *)
let resume o file est =
  let t0 = now () in
  let store = ok_exn (Mc.Campaign.load file) in
  let load_s = now () -. t0 in
  let out = with_store store (fun () -> exec { o with domains = 1 } est) in
  (now () -. t0, load_s, payload_string out)

(* Hit samples are ms-scale and noisy on a shared host, so take many:
   [resumes] loads of every journaled op's ledger, [replays] of every
   cross-check ledger. *)
let resumes = 5
let replays = 50

let one_op spec o i est =
  let file = ledger_file o "op" in
  let g0 = gc_snap () in
  let t0 = now () in
  let payload =
    if spec.journaled then with_store (fresh_store file) (fun () -> exec o est)
    else exec o est
  in
  let t1 = now () in
  if o.inject > 0.0 then Unix.sleepf (o.inject *. (t1 -. t0));
  let wall = now () -. t0 in
  let g1 = gc_snap () in
  let hits =
    if spec.journaled then begin
      Gc.full_major ();
      let hs = List.init resumes (fun _ -> resume o file est) in
      Sys.remove file;
      hs
    end
    else []
  in
  { req = i; wall; out = payload_string payload;
    minor = g1.minor_words -. g0.minor_words;
    majors = g1.major_collections - g0.major_collections; hits }

(* Closed loop over the distinct requests, round robin, for [seconds]
   (and at least one op per request). *)
let measure spec o ~seconds =
  let reqs = Array.of_list spec.reqs in
  let k = Array.length reqs in
  let t_end = now () +. seconds in
  let rec loop n acc =
    if n >= k && now () >= t_end then List.rev acc
    else
      let i = n mod k in
      loop (n + 1) (one_op spec o i reqs.(i) :: acc)
  in
  loop 0 []

(* -------------------------------------------------------- set-up time *)

(* Set-up is what a fresh process pays before its first result: lazy
   code tables, decoder graphs, domains.  It is measured in child
   processes (this binary with --setup-probe), since a second set-up in
   one process would find everything already forced. *)
let probe_main spec o =
  let est = spec.minimal in
  let file = ledger_file o "probe" in
  ignore
    (if spec.journaled then with_store (fresh_store file) (fun () -> exec o est)
     else exec o est);
  remove_if_exists file;
  print_endline "ready"

let setup_times ~argv ~n =
  List.init n (fun _ ->
      let r, w = Unix.pipe ~cloexec:true () in
      let t0 = now () in
      let pid =
        Unix.create_process Sys.executable_name argv Unix.stdin w Unix.stderr
      in
      Unix.close w;
      let ic = Unix.in_channel_of_descr r in
      let line = try input_line ic with End_of_file -> "" in
      let dt = now () -. t0 in
      close_in ic;
      let _, status = Unix.waitpid [] pid in
      if line <> "ready" || status <> Unix.WEXITED 0 then
        failwith "set-up probe failed";
      dt)

(* ------------------------------------------------------------ checks *)

(* [hits] are (request index, seconds) samples. *)
type verdict = { attempted : int; failed : int; hits : (int * float) list }

(* Every op must reproduce the scalar cross-check of its request, and
   every hit (a replay of the finished ledger) the fresh payload. *)
let check spec o ops =
  let reqs = Array.of_list spec.reqs in
  let failed = ref 0 and attempted = ref 0 and hits = ref [] in
  let bad what =
    incr failed;
    Printf.printf "MISMATCH %s: %s\n%!" spec.name what
  in
  Array.iteri
    (fun i est ->
      let mine = List.filter (fun op -> op.req = i) ops in
      if mine <> [] then begin
        let first = (List.hd mine).out in
        let file = ledger_file o (Printf.sprintf "check-%d" i) in
        let scalar =
          if spec.journaled then scalar_failures ~domains:o.domains est
          else begin
            let store = fresh_store ~flush_every:max_int file in
            let counts =
              with_store store (fun () -> scalar_failures ~domains:o.domains est)
            in
            (* the runner leaves the last partial flush interval to the
               caller; write the whole ledger once *)
            Mc.Campaign.flush store;
            counts
          end
        in
        List.iter
          (fun op ->
            incr attempted;
            let counts =
              match P.payload_of_json (ok_exn (Json.of_string op.out)) with
              | Ok p -> cell_failures p
              | Error e -> failwith e
            in
            if op.out <> first then bad (Printf.sprintf "request %d repeat differs" i)
            else if counts <> scalar then
              bad (Printf.sprintf "request %d batch counts differ from scalar" i);
            List.iter
              (fun (total, _, replayed) ->
                incr attempted;
                hits := (i, total) :: !hits;
                if replayed <> op.out then
                  bad (Printf.sprintf "request %d resume differs" i))
              op.hits)
          mine;
        if not spec.journaled then begin
          Gc.full_major ();
          for _ = 1 to replays do
            incr attempted;
            let total, _, replayed = resume o file est in
            hits := (i, total) :: !hits;
            if replayed <> first then
              bad (Printf.sprintf "request %d ledger replay differs" i)
          done;
          Sys.remove file
        end
      end)
    reqs;
  { attempted = !attempted; failed = !failed; hits = !hits }

(* ------------------------------------------------------ e2e metrics *)

(* The requests' ledgers replay at slightly different costs, so a
   pooled median would sit in the gap between them and jump from run to
   run: take each request's median, then their median. *)
let hit_median hits =
  List.sort_uniq compare (List.map fst hits)
  |> List.map (fun r ->
         median (List.filter_map (fun (q, h) -> if q = r then Some h else None) hits))
  |> median

let e2e_of spec ops ~hits ~setup ~rss =
  let reqs = Array.of_list spec.reqs in
  let walls = List.map (fun op -> op.wall) ops in
  let rates =
    List.map (fun op -> float_of_int (shots_of reqs.(op.req)) /. op.wall) ops
  in
  let label, tail_s = tail walls in
  Printf.printf "  %d ops; cold_tail_ms is %s of %d samples\n" (List.length ops) label
    (List.length ops);
  Printf.printf "  ledger replay of a finished request: %.3f ms (%d samples)\n"
    (1e3 *. hit_median hits) (List.length hits);
  [ m "shots_per_s" "1/s" (median rates);
    m "requests_per_s" "1/s"
      (float_of_int (List.length ops) /. List.fold_left ( +. ) 0.0 walls);
    m "cold_p50_ms" "ms" (1e3 *. median walls);
    m "cold_tail_ms" "ms" (1e3 *. tail_s);
    m "setup_s" "s" setup;
    m "peak_rss_mb" "MB" rss ]

(* ---------------------------------------------------- layer replays *)

(* Accumulated layer timings of one replay. *)
type replay = {
  mutable shots : int;
  mutable frame_s : float;
  mutable decode_s : float;
  mutable decodes : int;
  mutable decode_words : float;
  by_l : (int, float * int * float) Hashtbl.t;
      (** l -> decode seconds, calls, minor words *)
}

let new_replay () =
  { shots = 0; frame_s = 0.0; decode_s = 0.0; decodes = 0; decode_words = 0.0;
    by_l = Hashtbl.create 4 }

let emit ~parent ~id ~name ~cat t0 t1 =
  Trace.emit
    { Trace.id; parent; name; cat; start_s = t0; dur_s = t1 -. t0; args = [] }

(* Replay one toric-memory batch cell outside the runner, chunk by
   chunk, with the engine's own program and lane keys: frame sampling
   through [Frame.Program.run_into], then a union-find decode of every
   defect shot.  Returns the cell's failure count, which must equal
   the engine's. *)
let replay_toric rp ~parent ~l ~p ~trials ~seed ~tile_width =
  let lat = Toric.Lattice.create l in
  let nq = Toric.Lattice.num_qubits lat and np = Toric.Lattice.num_plaquettes lat in
  let checks =
    Array.init np (fun idx ->
        { Frame.Program.x_sel =
            Array.of_list (Toric.Lattice.plaquette_edges lat ~x:(idx mod l) ~y:(idx / l));
          z_sel = [||] })
  in
  let prog =
    Frame.Program.make ~n:nq
      [ Frame.Program.Flip_x { qubits = Array.init nq Fun.id; p };
        Frame.Program.Extract checks ]
  in
  let lanes = tile_width / 64 in
  let plane = Frame.Plane.create ~width:tile_width nq in
  let out = Array.make (np * lanes) 0L in
  let root = Mc.Rng.root seed in
  let failures = ref 0 in
  let ds = ref 0.0 and dn = ref 0 and dw = ref 0.0 in
  for c = 0 to ((trials + tile_width - 1) / tile_width) - 1 do
    let keys = Array.init lanes (fun j -> Mc.Rng.split root ((c * lanes) + j)) in
    let t0 = now () in
    let sampler = Frame.Sampler.create_tile keys in
    Frame.Plane.clear plane;
    Frame.Program.run_into prog sampler plane out;
    let t1 = now () in
    rp.frame_s <- rp.frame_s +. (t1 -. t0);
    let tid = Trace.span_id [ parent; string_of_int c ] in
    emit ~parent ~id:(tid ^ "f") ~name:"frame run_into" ~cat:"frame" t0 t1;
    let count = min tile_width (trials - (c * tile_width)) in
    let d0 = now () in
    for k = 0 to count - 1 do
      let syn =
        Frame.Plane.row_shot_vec out ~lanes ~lane:(k / 64) ~pos:0 ~len:np (k mod 64)
      in
      let err = Frame.Plane.extract_shot_x plane k in
      let residual =
        if Bitvec.is_zero syn then err
        else begin
          let t0 = now () in
          let w0 = Gc.minor_words () in
          let corr = Toric.Decoder.decode lat syn in
          let w1 = Gc.minor_words () in
          ds := !ds +. (now () -. t0);
          dw := !dw +. (w1 -. w0);
          incr dn;
          Bitvec.xor err corr
        end
      in
      let wx, wy = Toric.Lattice.winding lat residual in
      if wx || wy then incr failures
    done;
    emit ~parent ~id:(tid ^ "d") ~name:"decode defect shots" ~cat:"toric" d0 (now ())
  done;
  rp.shots <- rp.shots + trials;
  rp.decode_s <- rp.decode_s +. !ds;
  rp.decodes <- rp.decodes + !dn;
  rp.decode_words <- rp.decode_words +. !dw;
  let s, n, w = Option.value (Hashtbl.find_opt rp.by_l l) ~default:(0.0, 0, 0.0) in
  Hashtbl.replace rp.by_l l (s +. !ds, n + !dn, w +. !dw);
  !failures

(* Replay the Steane request's frame program ([Depolarize] on all 49
   qubits, eps/3 per Pauli) tile by tile; outside the timed frame
   calls, classify every shot with the scalar concatenated decoder so
   the replay is checked against the engine's count. *)
let replay_steane rp ~parent ~level ~eps ~trials ~seed ~tile_width =
  let rec pow7 = function 0 -> 1 | l -> 7 * pow7 (l - 1) in
  let n = pow7 level in
  let p = eps /. 3.0 in
  let prog =
    Frame.Program.make ~n
      [ Frame.Program.Depolarize { qubits = Array.init n Fun.id; px = p; py = p; pz = p } ]
  in
  let lanes = tile_width / 64 in
  let plane = Frame.Plane.create ~width:tile_width n in
  let root = Mc.Rng.root seed in
  let failures = ref 0 in
  for c = 0 to ((trials + tile_width - 1) / tile_width) - 1 do
    let keys = Array.init lanes (fun j -> Mc.Rng.split root ((c * lanes) + j)) in
    let t0 = now () in
    let sampler = Frame.Sampler.create_tile keys in
    Frame.Plane.clear plane;
    Frame.Program.run_into prog sampler plane [||];
    let t1 = now () in
    rp.frame_s <- rp.frame_s +. (t1 -. t0);
    emit ~parent ~id:(Trace.span_id [ parent; string_of_int c ]) ~name:"frame run_into"
      ~cat:"frame" t0 t1;
    for k = 0 to min tile_width (trials - (c * tile_width)) - 1 do
      if Pauli_frame.concatenated_steane_class ~level (Frame.Plane.extract_shot plane k)
         <> Pauli_frame.L_i
      then incr failures
    done
  done;
  rp.shots <- rp.shots + trials;
  !failures

(* Replay the first request of the workload; the per-cell counts must
   equal the engine's payload. *)
let replay spec ~payload =
  let rp = new_replay () in
  let est = List.hd spec.reqs in
  let parent = Trace.span_id [ "replay"; spec.name ] in
  let t0 = now () in
  let counts =
    match est with
    | Toric_scan { ls; ps; trials; seed; tile_width; _ } ->
      scan_cells ~ls ~ps ~seed (replay_toric rp ~parent ~trials ~tile_width)
    | Toric_memory { l; p; trials; seed; tile_width; _ } ->
      [ replay_toric rp ~parent ~l ~p ~trials ~seed ~tile_width ]
    | Steane_memory { level; eps; trials; seed; tile_width; _ } ->
      [ replay_steane rp ~parent ~level ~eps ~trials ~seed ~tile_width ]
    | _ -> invalid_arg "replay"
  in
  emit ~parent:"" ~id:parent ~name:("layer replay " ^ spec.name) ~cat:"perfbench" t0
    (now ());
  let engine = cell_failures payload in
  let sum = List.fold_left ( + ) 0 in
  Printf.printf "  layer replay of request 0: %d failures, engine %d (%s)\n"
    (sum counts) (sum engine) (if counts = engine then "match" else "MISMATCH");
  (rp, counts = engine)

(* ------------------------------------------------------------ traced *)

(* The journal layer on the workload's own request: run request 0 once
   under a fresh file-backed store at the default flush cadence, with
   the trace sink installed so every flush leaves a span, then load the
   ledger back.  Returns (ledger file, its bytes, load seconds). *)
let journal_probe spec o =
  let file = ledger_file o "journal" in
  let est = List.hd spec.reqs in
  ignore (with_store (fresh_store file) (fun () -> exec o est));
  let bytes = file_size file in
  let _, load_s, _ = resume o file est in
  Sys.remove file;
  (file, bytes, load_s)

let spans_named spans prefix =
  List.filter
    (fun (s : Trace.span) ->
      String.length s.name >= String.length prefix
      && String.sub s.name 0 (String.length prefix) = prefix)
    spans

(* The traced run: an untraced pass, the same pass with a trace sink
   and a live Obs handle, an untraced one-domain pass, then the traced
   layer replays.  Per-layer figures come from the traced pass (whose
   spans are returned) and the replays; the trace file, written to
   [trace_file], holds both. *)
let traced spec o ~seconds ~trace_file =
  let untraced = measure spec o ~seconds:(seconds /. 2.0) in
  let sink = Trace.sink () in
  Trace.install (Some sink);
  let obs = Ftqc.Obs.create () in
  let traced_ops = measure spec { o with obs } ~seconds:(seconds /. 2.0) in
  let spans = Trace.sink_spans sink in
  Trace.install None;
  let single = measure spec { o with domains = 1 } ~seconds:(seconds /. 4.0) in
  Trace.install (Some sink);
  let first = List.find (fun op -> op.req = 0) untraced in
  let payload = ok_exn (P.payload_of_json (ok_exn (Json.of_string first.out))) in
  let rp, replay_ok = replay spec ~payload in
  let journal_file, ledger_bytes, load_s = journal_probe spec o in
  let flushes =
    List.filter
      (fun (s : Trace.span) -> List.assoc_opt "file" s.args = Some (Json.String journal_file))
      (spans_named (Trace.sink_spans sink) "checkpoint flush")
  in
  Trace.install None;
  Trace.write sink ~file:trace_file;
  (match Json.read_file trace_file with
  | Ok j -> ignore (ok_exn (Trace.validate j))
  | Error e -> failwith e);
  Printf.printf "  trace: %d spans in %s\n" (Trace.sink_length sink) trace_file;
  (untraced, traced_ops, single, obs, spans, rp, replay_ok, (flushes, ledger_bytes, load_s))

let layer_metrics spec ~untraced ~traced_ops ~single ~obs ~spans ~rp ~hits ~journal =
  let flushes, ledger_bytes, load_s = journal in
  let reqs = Array.of_list spec.reqs in
  let shots op = float_of_int (shots_of reqs.(op.req)) in
  let rate ops = median (List.map (fun op -> shots op /. op.wall) ops) in
  let single0 = List.filter (fun op -> op.req = 0) single in
  (* one-domain ns per shot of the replayed request: the denominator of
     every share below, so replay and op see the same parallelism *)
  let op_ns = 1e9 *. median (List.map (fun op -> op.wall /. shots op) single0) in
  let rshots = float_of_int (max rp.shots 1) in
  let frame_ns = 1e9 *. rp.frame_s /. rshots in
  let defect = if rp.shots = 0 then 0.0 else float_of_int rp.decodes /. rshots in
  let decode_ns l =
    match Hashtbl.find_opt rp.by_l l with
    | Some (s, n, _) when n > 0 -> 1e9 *. s /. float_of_int n
    | _ -> 0.0
  in
  List.iter
    (fun l ->
      match Hashtbl.find_opt rp.by_l l with
      | Some (_, n, w) when n > 0 ->
        Printf.printf "  minor words per decode at L=%d: %.1f\n" l (w /. float_of_int n)
      | _ -> ())
    [ 3; 5; 7; 9 ];
  let warm =
    match Ftqc.Obs.summary obs "mc.warmup_s" with
    | Some (n, total, _, _) when n > 0 -> total /. float_of_int n
    | _ -> 0.0
  in
  let chunk_walls =
    List.filter_map
      (fun (s : Trace.span) ->
        if List.mem_assoc "cached" s.args then None else Some s.dur_s)
      (spans_named spans "chunk ")
  in
  let flush_s = List.fold_left (fun a (s : Trace.span) -> a +. s.dur_s) 0.0 flushes in
  let is_steane = match reqs.(0) with P.Steane_memory _ -> true | _ -> false in
  let untraced_ms = 1e3 *. median (List.map (fun op -> op.wall) untraced) in
  let traced_ms = 1e3 *. median (List.map (fun op -> op.wall) traced_ops) in
  [ m "frame.ns_per_shot" "ns" frame_ns;
    m ~derived:true "frame.share" "ratio" (frame_ns /. op_ns);
    m ~derived:true "steane.classify_ns_per_shot" "ns"
      (if is_steane then op_ns -. frame_ns else 0.0);
    m ~exact:true "toric.decode_calls" "count" (float_of_int rp.decodes);
    m ~exact:true "toric.defect_shot_frac" "ratio" defect;
    m "toric.decode_ns.L3" "ns" (decode_ns 3);
    m "toric.decode_ns.L5" "ns" (decode_ns 5);
    m "toric.decode_ns.L7" "ns" (decode_ns 7);
    m "toric.decode_ns.L9" "ns" (decode_ns 9);
    m ~derived:true "toric.decode_share" "ratio" (1e9 *. rp.decode_s /. rshots /. op_ns);
    m ~exact:true "toric.minor_words_per_decode" "words"
      (if rp.decodes = 0 then 0.0 else rp.decode_words /. float_of_int rp.decodes);
    m ~derived:true "mc.domain_speedup" "ratio" (rate untraced /. rate single);
    m "mc.warmup_s" "s" warm;
    m "mc.chunk_wall_p50_s" "s" (if chunk_walls = [] then 0.0 else median chunk_walls);
    (* the last one-domain op of request 0: every lazy is forced and
       one domain allocates deterministically *)
    m ~exact:true "gc.minor_words_per_shot" "words"
      (match List.rev single0 with op :: _ -> op.minor /. shots op | [] -> 0.0);
    m "gc.major_collections" "count"
      (median (List.map (fun op -> float_of_int op.majors) untraced));
    m ~exact:true "campaign.flushes" "count" (float_of_int (List.length flushes));
    m "campaign.flush_s" "s" flush_s;
    m ~exact:true "campaign.ledger_bytes" "bytes" (float_of_int ledger_bytes);
    m "campaign.load_s" "s" load_s;
    m "campaign.replay_ms" "ms" (1e3 *. hit_median hits);
    m ~derived:true "trace.overhead_ms" "ms" (traced_ms -. untraced_ms) ]
