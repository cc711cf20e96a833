(** Request execution and shard planning, all folded over one cell
    list.

    {!cells} is the only place that knows how a request breaks into
    driver calls: one {!cell} per independent call the experiments
    drivers make (entry point, derived seed, result name), each
    carrying that call.  {!execute} runs every cell in this process —
    the single-process reference semantics a service reply can be
    diffed against a direct [experiments] manifest.  The rest is the
    fleet's view of the same cells.  A scalar or batch cell pins the
    campaign chunk ledger its single [Mc.Runner] call will produce:
    every driver passes its seed unchanged into exactly one runner
    call and never overrides the chunk size, so the job key is a pure
    function of the cell.  {!cell_counts} runs an arbitrary chunk
    sub-range of a cell in the current process by zero-prefilling an
    in-memory campaign store outside the range and letting the cell's
    unmodified call replay the prefills; {!assemble} rebuilds the
    full payload from per-cell failure totals, bit-identically to
    {!execute} at any shard decomposition. *)

(** One independent driver call of a request's decomposition. *)
type cell = {
  c_index : int;  (** position in the request's cell order *)
  c_name : string;  (** payload cell name, e.g. ["l=4,p=0.01"] *)
  c_seed : int;  (** the seed the driver passes to its runner call *)
  c_trials : int;
  c_engine : Mc.Engine.t;
      (** the request's engine; {!Mc.Engine.name} is the campaign tag *)
  c_chunk : int;
      (** the chunk size that runner call will use; [0] under [`Rare],
          whose ledger is per weight class *)
  c_run : domains:int option -> obs:Obs.t -> Mc.Stats.estimate;
      (** the driver call itself.  Raises [Invalid_argument] for an
          engine the estimator does not have (a combination
          {!Protocol.estimator_of_json} already rejects). *)
}

(** [cells est] — the request's cells in payload order.  Pure: builds
    the calls without running them. *)
val cells : Protocol.estimator -> cell list

(** [execute ?domains ?obs est] — run the full request in this
    process.  May raise (estimator errors surface as [Failure] /
    [Invalid_argument]); the caller owns the try. *)
val execute :
  ?domains:int -> ?obs:Obs.t -> Protocol.estimator -> Protocol.payload

(** [Whole] — not chunk-shardable (any rare-engine request): dispatch
    the entire request to one worker.  [Sharded cells] — the ordered
    cell decomposition. *)
type plan = Whole | Sharded of cell list

val plan : Protocol.estimator -> plan

(** Number of campaign chunks of a cell's ledger. *)
val nchunks : cell -> int

(** The campaign job key of a cell's runner call (label [""]). *)
val job_of_cell : cell -> Mc.Campaign.job

(** [cell_counts cell ~lo ~hi] — compute chunks [lo, hi) of [cell]'s
    ledger and return [(chunk_index, failures)] pairs in chunk order.
    Runs the cell's call under a range-prefilled in-memory campaign
    store (saving and restoring the ambient store).  Raises
    [Invalid_argument] on a bad range and [Failure] if the call's job
    key does not match the cell (a planner bug — fail loud, never a
    wrong count). *)
val cell_counts :
  ?domains:int -> ?obs:Obs.t -> cell -> lo:int -> hi:int -> (int * int) list

(** [assemble est ~totals] — the full payload from per-cell failure
    totals (indexed by [c_index]).  Bit-identical to {!execute} for
    sharded plans. *)
val assemble : Protocol.estimator -> totals:int array -> Protocol.payload
