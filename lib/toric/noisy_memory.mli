(** Toric-code memory with *noisy syndrome measurements* — the §7
    regime where the medium is operated at finite temperature and the
    error diagnosis itself is unreliable.

    Errors accumulate over [rounds] measurement rounds: each round,
    every qubit flips with probability [p] and every reported
    plaquette bit is wrong with probability [q]; a final perfect round
    closes the history (the standard memory-experiment convention).
    Decoding matches *detection events* (differences between
    consecutive syndrome records) in the space-time graph: spatial
    edges are qubit errors, vertical edges are measurement errors.
    The threshold drops from ≈10% (perfect measurement) to a few
    percent — the price of fault tolerance when even looking at the
    system is noisy. *)

type result = {
  l : int;
  rounds : int;
  p : float;
  q : float;
  trials : int;
  failures : int;
  rate : float;
}

(** [run ~l ~rounds ~p ~q ~trials rng]. *)
val run :
  l:int ->
  rounds:int ->
  p:float ->
  q:float ->
  trials:int ->
  Random.State.t ->
  result

(** [run_mc ?domains ?obs ~l ~rounds ~p ~q ~trials ~seed ()] — the
    same experiment on the shared {!Mc.Runner} engine: the space-time
    graph is built once and shared read-only across OCaml 5 domains;
    failure counts are bit-identical for any [domains].  [?obs]
    (default {!Obs.none}) forwards runner telemetry without perturbing
    results; likewise below. *)
val run_mc :
  ?domains:int ->
  ?obs:Obs.t ->
  l:int ->
  rounds:int ->
  p:float ->
  q:float ->
  trials:int ->
  seed:int ->
  unit ->
  result

(** [run_batch ?domains ?engine ?tile_width ~l ~rounds ~p ~q ~trials
    ~seed ()] — the bit-sliced engine: per round, qubit-flip and
    measurement-flip tiles ([tile_width / 64] words, default 64) are
    sampled word-wise and turned into space-time defect tiles; per
    lane, shots with no detection events skip the matcher entirely
    (word-parallel winding), the rest have their error planes
    block-transposed out tile-at-a-time and are matched per shot.
    [`Batch] and [`Scalar] share the identical sampled noise, so
    counts are bit-identical — across engines, domain counts and tile
    widths; see {!Memory.run_batch}. *)
val run_batch :
  ?domains:int ->
  ?obs:Obs.t ->
  ?engine:[ `Batch | `Scalar ] ->
  ?tile_width:int ->
  l:int ->
  rounds:int ->
  p:float ->
  q:float ->
  trials:int ->
  seed:int ->
  unit ->
  result
