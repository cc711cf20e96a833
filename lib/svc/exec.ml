(* Request execution and shard planning, all folded over one cell list.

   [cells] is the only place that knows how a request breaks into
   driver calls: one cell per independent call the experiments drivers
   make — same library entry point, same derived seed, same result
   name — and each cell carries that call.  Everything else folds over
   the list:

   - [execute] runs every cell in this process and shapes the payload.
     It is the single-process reference semantics, so a service reply
     can be diffed against a direct [experiments] manifest.
   - [plan] hands the cells to the fleet unless one is rare.  Every
     scalar or batch driver passes its seed unchanged into exactly one
     [Mc.Runner] call and never overrides the chunk size, so the
     campaign job key is a pure function of the cell.
   - [cell_counts] runs an arbitrary chunk sub-range of a cell: prefill
     an in-memory campaign store with zero counts for every chunk
     outside the range, run the cell's unmodified call under it (the
     runner replays the prefills and computes only the range), then
     read the range's counts back out of the store.
   - [assemble] rebuilds the payload from per-cell failure totals,
     bit-identically to [execute]: every scalar or batch estimate is
     [Mc.Stats.estimate ~failures ~trials ()], which is exactly what
     the drivers return. *)

type cell = {
  c_index : int;  (* position in the request's cell order *)
  c_name : string;  (* the payload cell name, e.g. "l=4,p=0.01" *)
  c_seed : int;  (* the seed the driver passes to its runner call *)
  c_trials : int;
  c_engine : Mc.Engine.t;
  c_chunk : int;  (* the chunk size that runner call will use; 0 if rare *)
  c_run : domains:int option -> obs:Obs.t -> Mc.Stats.estimate;
}

type plan = Whole | Sharded of cell list

let engine_of (engine : Protocol.engine) ~tile_width : Mc.Engine.t =
  match engine with
  | `Scalar -> `Scalar
  | `Batch -> `Batch { tile_width }
  | `Rare { max_weight; samples_per_class } ->
    `Rare { Mc.Engine.default_rare with max_weight; samples_per_class }

(* Scalar entry points never pass [?chunk] (so the runner picks
   {!Mc.Runner.default_chunk}), batch entry points chunk by tile.  The
   rare engine keeps one ledger per weight class, not one chunked job,
   so a rare cell has no chunk and is never sharded. *)
let chunk_of (engine : Mc.Engine.t) ~trials =
  match engine with
  | `Scalar -> Mc.Runner.default_chunk ~trials
  | `Batch { tile_width } -> tile_width
  | `Rare _ -> 0

let counted ~failures ~trials = Mc.Stats.estimate ~failures ~trials ()

let cells (est : Protocol.estimator) =
  let cell ?(index = 0) ~name ~seed ~trials engine call =
    { c_index = index; c_name = name; c_seed = seed; c_trials = trials;
      c_engine = engine; c_chunk = chunk_of engine ~trials;
      c_run = (fun ~domains ~obs -> call ~domains ~obs engine) }
  in
  (* unreachable through the protocol: estimator_of_json rejects every
     combination that lands here *)
  let reject engine =
    invalid_arg
      (Printf.sprintf "Svc.Exec: %s has no %s engine"
         (Protocol.estimator_name est) (Mc.Engine.name engine))
  in
  let toric ~l ~p ~trials ~seed ~domains ~obs = function
    | `Scalar ->
      let r = Toric.Memory.run_mc ?domains ~obs ~l ~p ~trials ~seed () in
      counted ~failures:r.failures ~trials:r.trials
    | `Batch { Mc.Engine.tile_width } ->
      let r =
        Toric.Memory.run_batch ?domains ~obs ~tile_width ~l ~p ~trials ~seed ()
      in
      counted ~failures:r.failures ~trials:r.trials
    | `Rare config ->
      Mc.Stats.weighted_to_estimate
        (Toric.Memory.run_rare ?domains ~obs ~config ~l ~p ~seed ())
  in
  match est with
  | Steane_memory { level; eps; rounds; trials; seed; engine; tile_width } ->
    [ cell ~name:(Printf.sprintf "L%d@eps=%g" level eps) ~seed ~trials
        (engine_of engine ~tile_width) (fun ~domains ~obs -> function
        | `Scalar ->
          Codes.Pauli_frame.memory_failure_mc ?domains ~obs ~level ~eps
            ~rounds ~trials ~seed ()
        | `Batch { tile_width } ->
          Codes.Pauli_frame.memory_failure_batch ?domains ~obs ~tile_width
            ~level ~eps ~rounds ~trials ~seed ()
        | `Rare config ->
          Mc.Stats.weighted_to_estimate
            (Codes.Pauli_frame.memory_failure_rare ?domains ~obs ~config
               ~level ~eps ~rounds ~seed ())) ]
  | Toric_memory { l; p; trials; seed; engine; tile_width } ->
    [ cell ~name:(Printf.sprintf "l=%d,p=%g" l p) ~seed ~trials
        (engine_of engine ~tile_width) (toric ~l ~p ~trials ~seed) ]
  | Toric_scan { ls; ps; trials; seed; engine; tile_width } ->
    (* e10's loop shape: p outer (indexed), l inner, seed derived per
       cell — cells coincide with [experiments e10 --seed seed]. *)
    let engine = engine_of engine ~tile_width in
    List.concat
      (List.mapi
         (fun pi p ->
           List.mapi
             (fun li l ->
               let seed = Mc.Rng.derive seed [ 10; l; pi ] in
               cell ~index:((pi * List.length ls) + li)
                 ~name:(Printf.sprintf "l=%d,p=%g" l p) ~seed ~trials engine
                 (toric ~l ~p ~trials ~seed))
             ls)
         ps)
  | Toric_noisy { l; rounds; p; q; trials; seed; engine; tile_width } ->
    [ cell ~name:(Printf.sprintf "l=%d,p=%g" l p) ~seed ~trials
        (engine_of engine ~tile_width) (fun ~domains ~obs -> function
        | `Scalar ->
          let r =
            Toric.Noisy_memory.run_mc ?domains ~obs ~l ~rounds ~p ~q ~trials
              ~seed ()
          in
          counted ~failures:r.failures ~trials:r.trials
        | `Batch { tile_width } ->
          let r =
            Toric.Noisy_memory.run_batch ?domains ~obs ~tile_width ~l ~rounds
              ~p ~q ~trials ~seed ()
          in
          counted ~failures:r.failures ~trials:r.trials
        | `Rare _ as e -> reject e) ]
  | Toric_circuit { l; rounds; eps; trials; seed; engine } ->
    [ cell ~name:(Printf.sprintf "l=%d,eps=%g" l eps) ~seed ~trials
        (engine_of engine ~tile_width:Mc.Engine.default_tile_width)
        (fun ~domains ~obs -> function
        | `Scalar ->
          let r =
            Toric.Circuit_memory.run_mc ?domains ~obs ~l ~rounds
              ~noise:(Ft.Noise.uniform eps) ~trials ~seed ()
          in
          counted ~failures:r.failures ~trials:r.trials
        | `Rare config ->
          Mc.Stats.weighted_to_estimate
            (Toric.Circuit_memory.run_rare ?domains ~obs ~config ~l ~rounds
               ~p:eps ~seed ())
        | `Batch _ as e -> reject e) ]
  | Css_memory { code; eps; rounds; trials; seed; engine; tile_width } ->
    [ cell ~name:(Printf.sprintf "%s@eps=%g" code eps) ~seed ~trials
        (engine_of engine ~tile_width) (fun ~domains ~obs -> function
        | `Scalar ->
          Csskit.Memory.memory_failure_mc ?domains ~obs (Csskit.Zoo.get code)
            ~eps ~rounds ~trials ~seed ()
        | `Batch { tile_width } ->
          Csskit.Memory.memory_failure_batch ?domains ~obs ~tile_width
            (Csskit.Zoo.get code) ~eps ~rounds ~trials ~seed ()
        | `Rare _ as e -> reject e) ]
  | Pseudothreshold { eps_list; trials; seed } ->
    (* e5: per-eps exRec failure, then the A·eps² fit in [payload] *)
    List.mapi
      (fun i eps ->
        let seed = Mc.Rng.derive seed [ 5; i ] in
        cell ~index:i ~name:(Printf.sprintf "exrec@eps=%g" eps) ~seed ~trials
          `Scalar (fun ~domains ~obs _ ->
            Ft.Memory.logical_cnot_exrec_failure_mc ?domains ~obs
              ~noise:(Ft.Noise.gates_only eps) ~trials ~seed ()))
      eps_list

(* The payload shape, from the request's cells in cell order. *)
let payload (est : Protocol.estimator) cells : Protocol.payload =
  match est with
  | Toric_scan _ -> Cells cells
  | Pseudothreshold { eps_list; _ } ->
    let pts =
      List.map2
        (fun eps (c : Protocol.cell) -> (eps, c.estimate.rate))
        eps_list cells
    in
    let f = Threshold.Pseudothreshold.fit pts in
    Fit { cells; a = f.a; threshold = f.threshold }
  | Steane_memory _ | Toric_memory _ | Toric_noisy _ | Toric_circuit _
  | Css_memory _ ->
    Estimate (List.hd cells)

let execute ?domains ?(obs = Obs.none) est =
  payload est
    (List.map
       (fun c -> { Protocol.name = c.c_name; estimate = c.c_run ~domains ~obs })
       (cells est))

let plan est =
  let cs = cells est in
  let rare c = match c.c_engine with `Rare _ -> true | _ -> false in
  if List.exists rare cs then Whole else Sharded cs

let nchunks c = (c.c_trials + c.c_chunk - 1) / c.c_chunk

let job_of_cell c =
  { Mc.Campaign.label = ""; engine = Mc.Engine.name c.c_engine;
    seed = c.c_seed; trials = c.c_trials; chunk = c.c_chunk }

let cell_counts ?domains ?(obs = Obs.none) c ~lo ~hi =
  let n = nchunks c in
  if lo < 0 || hi > n || lo >= hi then
    invalid_arg "Svc.Exec.cell_counts: bad chunk range";
  let store = Mc.Campaign.in_memory () in
  let job = job_of_cell c in
  (* Zero-prefill everything outside [lo, hi): the runner's skip path
     replays those for free and computes only the range. *)
  for idx = 0 to n - 1 do
    if idx < lo || idx >= hi then
      Mc.Campaign.record store ~job ~chunk:idx ~failures:0
  done;
  let saved = Mc.Campaign.current () in
  Mc.Campaign.set_current (Some store);
  (* the estimate is discarded: the counts are read out of the store *)
  Fun.protect
    ~finally:(fun () -> Mc.Campaign.set_current saved)
    (fun () -> ignore (c.c_run ~domains ~obs));
  List.init (hi - lo) (fun k ->
      let idx = lo + k in
      match Mc.Campaign.find store ~job ~chunk:idx with
      | Some f -> (idx, f)
      | None ->
        (* the cell's runner call used a different job key than the
           cell predicted — a planner bug, never a data race; fail loud
           so the identity test catches it *)
        failwith
          (Printf.sprintf
             "Svc.Exec.cell_counts: chunk %d missing after run (job \
              engine=%s seed=%d trials=%d chunk=%d)"
             idx job.engine c.c_seed c.c_trials c.c_chunk))

(* The drivers' own estimates are [Mc.Stats.estimate ~failures ~trials
   ()] with the default interval, and the pseudothreshold fit is a
   deterministic function of the per-cell rates. *)
let assemble est ~totals =
  payload est
    (List.map
       (fun c ->
         { Protocol.name = c.c_name;
           estimate = counted ~failures:totals.(c.c_index) ~trials:c.c_trials })
       (cells est))
