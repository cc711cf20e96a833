(** Multi-process estimation fleet: worker registry, liveness
    detection, crash recovery and deterministic re-dispatch.

    The coordinator splits each request's campaign chunk ranges over
    [size] worker {e processes} using {!Exec.plan}; workers compute
    sub-ranges with the per-chunk RNG streams of a single-process run
    ({!Exec.cell_counts}), so the merged counts — and the assembled
    result frame — are bit-identical at any worker count.

    Robustness contract: a worker dying (crash, SIGKILL, hang past
    the watchdog) or dropping a result mid-campaign changes nothing
    in the result bytes.  Lost shards flow back through the request's
    in-memory [Mc.Campaign] ledger and are re-dispatched to a live
    worker; the dead slot restarts with exponential backoff at the
    next spawn generation, up to [max_restarts] times.  Fault
    injection for all three paths is wired through [Mc.Chaos]'s fleet
    specs (addressed by worker slot, spawn generation and dispatch
    ordinal, so a restarted worker does not re-trigger the fault).

    Workers are separate processes spawned by re-exec
    ([Unix.create_process_env Sys.executable_name] — [Unix.fork] is
    unavailable once domains exist), with dispatches and results as
    length-prefixed JSON frames ({!Codec}) on inherited pipe fds named
    in the environment; the child's stdin/stdout point at /dev/null,
    so nothing the host binary prints can corrupt the protocol.  The
    host binary {b must} call {!run_if_worker} before its own main. *)

type config = {
  size : int;  (** worker processes *)
  domains : int option;  (** per-worker domain count; [None] inherits *)
  hb_interval : float;  (** busy-worker heartbeat period, seconds *)
  hang_timeout : float;  (** SIGKILL a busy worker whose progress
                             stalls this long; [0.] disables *)
  max_restarts : int;  (** per slot, over the fleet's lifetime *)
  restart_backoff : float;  (** base restart delay, doubled each time *)
  shard_factor : int;  (** target shards per worker per request *)
  chaos : Mc.Chaos.fleet list;  (** fault injection, forwarded to
                                    workers via the environment *)
}

(** Validated constructor.  Defaults: [hb_interval = 0.25],
    [hang_timeout = 30.], [max_restarts = 5],
    [restart_backoff = 0.25], [shard_factor = 4], no chaos. *)
val config :
  ?domains:int ->
  ?hb_interval:float ->
  ?hang_timeout:float ->
  ?max_restarts:int ->
  ?restart_backoff:float ->
  ?shard_factor:int ->
  ?chaos:Mc.Chaos.fleet list ->
  size:int ->
  unit ->
  config

type t

(** [create ?obs cfg] — spawn the workers and their supervisor
    threads.  Counters: [svc.fleet.spawns], [svc.fleet.restarts],
    [svc.fleet.redispatched], [svc.fleet.hangs]; gauge
    [svc.fleet.alive]. *)
val create : ?obs:Obs.t -> config -> t

(** [execute t est] — run one request on the fleet and return the
    payload, bit-identical to [Exec.execute est] in-process.  Raises
    [Failure] when the request cannot complete (estimator error, or
    every slot exhausted its restarts).  With tracing on
    ({!Obs.Trace.enabled} when [execute] starts), every dispatch of a
    shard to a worker emits one [cat:"fleet"] span under the caller's
    ambient trace parent, with args [slot], [gen], [cell], [lo], [hi]
    (the last three absent for a whole-request dispatch) and [outcome]
    ([done], [lost] or [crashed]); ids are deterministic in the work
    and distinct across re-dispatches. *)
val execute : t -> Protocol.estimator -> Protocol.payload

type stats = {
  s_size : int;
  s_alive : int;
  s_spawned : int;
  s_restarts : int;
  s_redispatched : int;
  s_hangs : int;
  s_workers : (int * int * int) list;  (** (slot, gen, pid), sorted *)
}

val stats : t -> stats

(** [shutdown t] — drain outstanding shards, stop the workers and
    join the supervisors. *)
val shutdown : t -> unit

(** {1 Worker-process entry} *)

(** The environment variable ([FTQC_FLEET_WORKER], value
    ["<slot>.<gen>"]) marking a process as a fleet worker. *)
val worker_env : string

(** [run_if_worker ()] — if {!worker_env} is set, run the worker
    protocol on stdin/stdout and [exit]; otherwise return.  Call
    first thing in any binary that hosts a fleet. *)
val run_if_worker : unit -> unit

(** The worker main loop.  Never returns. *)
val worker_main : unit -> 'a
