(* Multi-process estimation fleet.

   The coordinator shards each request's campaign-chunk ranges over N
   worker *processes* and merges the returned per-chunk counts through
   an in-memory [Mc.Campaign] ledger, so the assembled payload is
   bit-identical to a single-process run at any worker count — and
   stays so when workers crash, hang or drop results mid-campaign,
   because a lost shard is simply re-dispatched against the ledger and
   a retried chunk re-derives the same RNG stream.

   Processes, not domains: OCaml 5 forbids [Unix.fork] once domains
   exist, so workers are spawned by re-exec —
   [Unix.create_process_env Sys.executable_name] with
   [FTQC_FLEET_WORKER=<slot>.<gen>] in the environment; the host
   binary must call {!run_if_worker} before its own main (ftqcd and
   the test runner both do).  The dispatch and result pipes are
   inherited fds whose numbers ride in [FTQC_FLEET_FDS] — deliberately
   *not* the worker's stdin/stdout, which point at /dev/null from
   birth: anything the host binary prints before {!run_if_worker}
   gets control (module initializers, a library banner) or during a
   computation can then never corrupt the frame stream.  Frames are
   the same length-prefixed JSON as the client socket ([Codec]).

   Liveness: a worker heartbeats over the result pipe only while busy,
   plus one final beat on the busy→idle transition.  Idle workers are
   silent on purpose — a beating idle worker would slowly fill the
   pipe buffer nobody is draining — and an idle crash is caught at the
   next dispatch (EPIPE/EOF).  The final idle beat is what exposes a
   dropped result: [busy = false] with [rx >= id] and [tx < id] means
   the worker consumed dispatch [id] and went idle without answering
   it.  A busy worker whose progress stops advancing past the hang
   timeout is SIGKILLed and takes the crash path.  Crashes restart the
   slot with exponential backoff, [max_restarts] times, at the next
   spawn generation — which is why chaos specs address (slot, gen):
   the restarted process does not re-trigger the fault. *)

module Json = Obs.Json

let worker_env = "FTQC_FLEET_WORKER"
let hb_env = "FTQC_FLEET_HB"
let fds_env = "FTQC_FLEET_FDS"

(* The Unix library represents a POSIX [file_descr] as the raw fd
   number; these two are how inherited fds cross an exec boundary.
   POSIX-only, like the rest of the daemon (Unix sockets, signals). *)
let int_of_fd : Unix.file_descr -> int = Obj.magic
let fd_of_int : int -> Unix.file_descr = Obj.magic

type config = {
  size : int;
  domains : int option;  (* worker FTQC_DOMAINS; None = inherit *)
  hb_interval : float;
  hang_timeout : float;  (* 0 = hang watchdog off *)
  max_restarts : int;  (* per slot, over the fleet's lifetime *)
  restart_backoff : float;  (* base delay, doubled per restart *)
  shard_factor : int;  (* target shards per worker per request *)
  chaos : Mc.Chaos.fleet list;
}

let config ?domains ?(hb_interval = 0.25) ?(hang_timeout = 30.0)
    ?(max_restarts = 5) ?(restart_backoff = 0.25) ?(shard_factor = 4)
    ?(chaos = []) ~size () =
  if size < 1 then invalid_arg "Fleet.config: size must be >= 1";
  if hb_interval <= 0.0 then
    invalid_arg "Fleet.config: hb_interval must be > 0";
  if hang_timeout < 0.0 then
    invalid_arg "Fleet.config: hang_timeout must be >= 0";
  if max_restarts < 0 then
    invalid_arg "Fleet.config: max_restarts must be >= 0";
  if restart_backoff < 0.0 then
    invalid_arg "Fleet.config: restart_backoff must be >= 0";
  if shard_factor < 1 then
    invalid_arg "Fleet.config: shard_factor must be >= 1";
  { size; domains; hb_interval; hang_timeout; max_restarts; restart_backoff;
    shard_factor; chaos }

(* ------------------------------------------------------ pipe frames *)

let jint j k =
  match Json.member k j with Some (Json.Int i) -> Some i | _ -> None

let jstr j k =
  match Json.member k j with Some (Json.String s) -> Some s | _ -> None

let jbool j k =
  match Json.member k j with Some (Json.Bool b) -> Some b | _ -> None

let shard_frame ~id ~body ~cell ~lo ~hi =
  Json.Obj
    [ ("op", Json.String "shard"); ("id", Json.Int id); ("body", body);
      ("cell", Json.Int cell); ("lo", Json.Int lo); ("hi", Json.Int hi) ]

let whole_frame ~id ~body =
  Json.Obj [ ("op", Json.String "whole"); ("id", Json.Int id); ("body", body) ]

let exit_frame = Json.Obj [ ("op", Json.String "exit") ]

let hb_frame ~busy ~rx ~tx ~done_ ~total =
  Json.Obj
    [ ("op", Json.String "hb"); ("busy", Json.Bool busy);
      ("rx", Json.Int rx); ("tx", Json.Int tx); ("done", Json.Int done_);
      ("total", Json.Int total) ]

let ok_counts_frame ~id counts =
  Json.Obj
    [ ("op", Json.String "ok"); ("id", Json.Int id);
      ( "counts",
        Json.List
          (List.map (fun (i, c) -> Json.List [ Json.Int i; Json.Int c ]) counts)
      ) ]

let ok_payload_frame ~id payload =
  Json.Obj
    [ ("op", Json.String "ok"); ("id", Json.Int id); ("payload", payload) ]

let fail_frame ~id ~message =
  Json.Obj
    [ ("op", Json.String "fail"); ("id", Json.Int id);
      ("message", Json.String message) ]

(* --------------------------------------------------- worker process *)

(* The worker half runs in the spawned process, speaking frames on
   stdin/stdout.  It exists in the same binary as the coordinator:
   {!run_if_worker} diverts execution here before the host's main. *)

let parse_slot_gen s =
  match String.split_on_char '.' s with
  | [ slot; gen ] -> (
    match (int_of_string_opt slot, int_of_string_opt gen) with
    | Some s, Some g when s >= 0 && g >= 0 -> (s, g)
    | _ -> failwith (Printf.sprintf "bad %s value %S" worker_env s))
  | _ -> failwith (Printf.sprintf "bad %s value %S" worker_env s)

let progress_totals () =
  List.fold_left
    (fun (d, t) (v : Obs.Progress.view) -> (d + v.v_done, t + v.v_total))
    (0, 0)
    (Obs.Progress.snapshot ())

let worker_main () =
  let slot, gen =
    match Sys.getenv_opt worker_env with
    | Some s -> parse_slot_gen s
    | None -> failwith "Fleet.worker_main: not a fleet worker"
  in
  let hb_interval =
    match Sys.getenv_opt hb_env with
    | Some s -> ( match float_of_string_opt s with Some f when f > 0.0 -> f | _ -> 0.25)
    | None -> 0.25
  in
  let chaos =
    match Sys.getenv_opt Mc.Chaos.fleet_env with
    | None -> []
    | Some s -> (
      match Mc.Chaos.fleet_list_of_string s with
      | Ok l ->
        List.filter (fun f -> f.Mc.Chaos.f_worker = slot && f.f_gen = gen) l
      | Error msg -> failwith msg)
  in
  (* The pipes are inherited fds named in the environment; stdin and
     stdout already point at /dev/null (the spawner's doing), so no
     print anywhere in this process can corrupt the frame stream.
     Fallback for running a worker by hand: speak on stdin/stdout,
     moved to private fds and replaced by /dev/null. *)
  let down, up =
    match Sys.getenv_opt fds_env with
    | Some s -> (
      match String.split_on_char '.' s with
      | [ d; u ] -> (
        match (int_of_string_opt d, int_of_string_opt u) with
        | Some d, Some u -> (fd_of_int d, fd_of_int u)
        | _ -> failwith (Printf.sprintf "bad %s value %S" fds_env s))
      | _ -> failwith (Printf.sprintf "bad %s value %S" fds_env s))
    | None ->
      let down = Unix.dup Unix.stdin in
      let up = Unix.dup Unix.stdout in
      let null_r = Unix.openfile "/dev/null" [ O_RDONLY ] 0 in
      let null_w = Unix.openfile "/dev/null" [ O_WRONLY ] 0 in
      Unix.dup2 null_r Unix.stdin;
      Unix.dup2 null_w Unix.stdout;
      Unix.close null_r;
      Unix.close null_w;
      (down, up)
  in
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  (* publish runner progress so heartbeats can report completion *)
  Obs.Progress.set_publish true;
  let wmu = Mutex.create () in
  let rx = ref 0 and tx = ref 0 in
  let busy = ref false in
  let send j =
    Mutex.lock wmu;
    Fun.protect ~finally:(fun () -> Mutex.unlock wmu) (fun () ->
        Codec.write up j)
  in
  let hb () =
    let done_, total = progress_totals () in
    hb_frame ~busy:!busy ~rx:!rx ~tx:!tx ~done_ ~total
  in
  (* Heartbeats only while busy: an idle worker must stay silent or
     the unread pipe eventually fills and wedges this thread (and,
     because it holds [wmu], the whole worker). *)
  let _hb_thread =
    Thread.create
      (fun () ->
        while true do
          Thread.delay hb_interval;
          if !busy then try send (hb ()) with _ -> ()
        done)
      ()
  in
  let compute j =
    let body =
      match Json.member "body" j with
      | Some b -> b
      | None -> failwith "fleet dispatch: missing body"
    in
    let est =
      match Protocol.estimator_of_json body with
      | Ok e -> e
      | Error msg -> failwith ("fleet dispatch: " ^ msg)
    in
    match jstr j "op" with
    | Some "shard" ->
      let geti k =
        match jint j k with
        | Some i -> i
        | None -> failwith (Printf.sprintf "fleet dispatch: missing %s" k)
      in
      let cell_index = geti "cell" and lo = geti "lo" and hi = geti "hi" in
      let cell =
        match Exec.plan est with
        | Sharded cells -> (
          match
            List.find_opt (fun (c : Exec.cell) -> c.c_index = cell_index) cells
          with
          | Some c -> c
          | None -> failwith "fleet dispatch: cell index out of plan")
        | Whole -> failwith "fleet dispatch: shard op on a whole-plan request"
      in
      let counts = Exec.cell_counts cell ~lo ~hi in
      ok_counts_frame ~id:!rx counts
    | Some "whole" ->
      let payload = Exec.execute est in
      ok_payload_frame ~id:!rx (Protocol.payload_to_json payload)
    | op ->
      failwith
        (Printf.sprintf "fleet dispatch: unknown op %S"
           (Option.value ~default:"" op))
  in
  let rec loop () =
    match Codec.read down with
    | Error `Closed -> exit 0
    | Error (`Bad msg) -> failwith ("fleet worker: " ^ msg)
    | Ok (j, _) -> (
      match jstr j "op" with
      | Some "exit" -> exit 0
      | _ ->
        incr rx;
        let nth = !rx - 1 in
        Mutex.lock wmu;
        busy := true;
        Mutex.unlock wmu;
        let fault =
          List.find_opt (fun f -> f.Mc.Chaos.f_nth = nth) chaos
        in
        (match fault with
        | Some { f_event = Kill_worker; _ } ->
          (* crash without cleanup: the coordinator must see raw EOF *)
          Unix.kill (Unix.getpid ()) Sys.sigkill
        | Some { f_event = Hang_worker seconds; _ } -> Unix.sleepf seconds
        | Some { f_event = Drop_result; _ } | None -> ());
        let reply =
          match compute j with
          | r -> Some r
          | exception e -> Some (fail_frame ~id:!rx ~message:(Printexc.to_string e))
        in
        let drop =
          match fault with
          | Some { f_event = Drop_result; _ } -> true
          | _ -> false
        in
        Mutex.lock wmu;
        (match reply with
        | Some r when not drop ->
          Codec.write up r;
          incr tx
        | _ -> ());
        busy := false;
        (* final beat of the busy interval: with [busy = false],
           [rx >= id], [tx < id] it is exactly the coordinator's
           dropped-result signal *)
        let done_, total = progress_totals () in
        (try Codec.write up (hb_frame ~busy:false ~rx:!rx ~tx:!tx ~done_ ~total)
         with _ -> ());
        Mutex.unlock wmu;
        loop ())
  in
  (try loop () with _ -> ());
  exit 0

let run_if_worker () =
  match Sys.getenv_opt worker_env with
  | Some _ -> worker_main ()
  | None -> ()

(* ------------------------------------------------------ coordinator *)

type request_state = {
  r_est : Protocol.estimator;
  r_body : Json.t;  (* encoded estimator, shipped in every dispatch *)
  r_store : Mc.Campaign.t;  (* in-memory re-dispatch ledger *)
  r_progress : Obs.Progress.p option;
  r_trace : (string * string) option;
      (* (ambient trace parent, request hash), if tracing at admission *)
  mutable r_left : int;  (* shards outstanding *)
  mutable r_error : string option;
  mutable r_payload : Protocol.payload option;  (* whole-plan result *)
}

type shard = {
  s_req : request_state;
  s_kind : [ `Cell of Exec.cell * int * int | `Whole ];
  s_attempt : int;  (* dispatches of this shard lost before this one *)
}

type proc = {
  pid : int;
  gen : int;
  down : Unix.file_descr;  (* write: dispatches *)
  up : Unix.file_descr;  (* read: results + heartbeats *)
  mutable sent : int;  (* dispatches sent to this process (1-based ids) *)
  mutable heard : float;  (* when the last frame arrived from it *)
}

type t = {
  cfg : config;
  obs : Obs.t;
  squeue : shard Jobq.t;
  tmu : Mutex.t;  (* request state + registry *)
  rcv : Condition.t;
  mutable active : request_state list;  (* under [tmu] *)
  mutable workers : (int * int * int) list;  (* slot, gen, pid; under [tmu] *)
  alive : int Atomic.t;
  spawned : int Atomic.t;
  restarts : int Atomic.t;
  redispatched : int Atomic.t;
  hangs : int Atomic.t;
  supervisors : Thread.t list ref;
}

(* Environment of a worker process: the parent's, minus any stale
   fleet variables, plus this worker's address, pipe fds and config. *)
let worker_environment t ~slot ~gen ~down ~up =
  let keep kv =
    let name = match String.index_opt kv '=' with
      | Some i -> String.sub kv 0 i
      | None -> kv
    in
    name <> worker_env && name <> hb_env && name <> fds_env
    && name <> Mc.Chaos.fleet_env
    && (t.cfg.domains = None || name <> Mc.Runner.env_domains)
  in
  let base = Array.to_list (Unix.environment ()) |> List.filter keep in
  let extra =
    [ Printf.sprintf "%s=%d.%d" worker_env slot gen;
      Printf.sprintf "%s=%d.%d" fds_env (int_of_fd down) (int_of_fd up);
      Printf.sprintf "%s=%g" hb_env t.cfg.hb_interval ]
    @ (match t.cfg.chaos with
      | [] -> []
      | l ->
        [ Printf.sprintf "%s=%s" Mc.Chaos.fleet_env
            (Mc.Chaos.fleet_list_to_string l) ])
    @
    match t.cfg.domains with
    | Some d -> [ Printf.sprintf "%s=%d" Mc.Runner.env_domains d ]
    | None -> []
  in
  Array.of_list (base @ extra)

let close_fd fd = try Unix.close fd with Unix.Unix_error _ -> ()

(* Spawns are serialized: the child's pipe ends must have close-on-exec
   cleared to survive the exec, and a concurrent fork in that window
   would leak them into a sibling — whose copy of a dead worker's
   write end would then mask the EOF the supervisor waits for.  The
   mutex closes the window: child ends are closed again before the
   next spawn may fork. *)
let spawn_mu = Mutex.create ()

let spawn t ~slot ~gen =
  Mutex.lock spawn_mu;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock spawn_mu)
    (fun () ->
      let down_r, down_w = Unix.pipe ~cloexec:true () in
      let up_r, up_w = Unix.pipe ~cloexec:true () in
      Unix.clear_close_on_exec down_r;
      Unix.clear_close_on_exec up_w;
      let null_r = Unix.openfile "/dev/null" [ O_RDONLY ] 0 in
      let null_w = Unix.openfile "/dev/null" [ O_WRONLY ] 0 in
      let pid =
        Unix.create_process_env Sys.executable_name
          [| Sys.executable_name |]
          (worker_environment t ~slot ~gen ~down:down_r ~up:up_w)
          null_r null_w Unix.stderr
      in
      List.iter close_fd [ down_r; up_w; null_r; null_w ];
      Atomic.incr t.spawned;
      Obs.incr t.obs "svc.fleet.spawns";
      { pid; gen; down = down_w; up = up_r; sent = 0; heard = 0.0 })

let reap p =
  close_fd p.down;
  close_fd p.up;
  try ignore (Unix.waitpid [] p.pid) with Unix.Unix_error _ -> ()

let set_worker_row t ~slot ~gen ~pid =
  Mutex.lock t.tmu;
  t.workers <-
    (slot, gen, pid) :: List.filter (fun (s, _, _) -> s <> slot) t.workers;
  Mutex.unlock t.tmu

let drop_worker_row t ~slot =
  Mutex.lock t.tmu;
  t.workers <- List.filter (fun (s, _, _) -> s <> slot) t.workers;
  Mutex.unlock t.tmu

(* Complete one shard: merge its counts into the request ledger and
   wake the waiter.  [counts] is empty for whole-plan results. *)
let complete_shard t shard ~counts ~payload =
  Mutex.lock t.tmu;
  let r = shard.s_req in
  (match shard.s_kind with
  | `Cell (cell, _, _) ->
    let job = Exec.job_of_cell cell in
    List.iter
      (fun (idx, failures) ->
        Mc.Campaign.record r.r_store ~job ~chunk:idx ~failures)
      counts
  | `Whole -> r.r_payload <- payload);
  r.r_left <- r.r_left - 1;
  Obs.Progress.step r.r_progress;
  Condition.broadcast t.rcv;
  Mutex.unlock t.tmu

let fail_request t r msg =
  Mutex.lock t.tmu;
  if r.r_error = None then r.r_error <- Some msg;
  Condition.broadcast t.rcv;
  Mutex.unlock t.tmu

let fail_all t msg =
  Mutex.lock t.tmu;
  List.iter
    (fun r -> if r.r_error = None then r.r_error <- Some msg)
    t.active;
  Condition.broadcast t.rcv;
  Mutex.unlock t.tmu

(* Narrow a popped shard against the request ledger: chunks whose
   counts already landed (an earlier dispatch of this shard raced a
   re-dispatch, or a duplicate) need not be recomputed.  Whole-shard
   loss leaves the full range missing, so this is usually identity —
   but it is the ledger, not the scheduler, that decides what a
   re-dispatched worker recomputes. *)
let narrow_range store cell ~lo ~hi =
  let job = Exec.job_of_cell cell in
  let missing idx = Mc.Campaign.find store ~job ~chunk:idx = None in
  let rec first i = if i >= hi then None else if missing i then Some i else first (i + 1) in
  match first lo with
  | None -> None
  | Some lo' ->
    let rec last i = if missing i then i else last (i - 1) in
    Some (lo', last (hi - 1) + 1)

let requeue t shard =
  Atomic.incr t.redispatched;
  Obs.incr t.obs "svc.fleet.redispatched";
  match Jobq.push t.squeue { shard with s_attempt = shard.s_attempt + 1 }
  with
  | Ok () -> ()
  | Error (`Closed | `Overloaded) ->
    fail_request t shard.s_req "fleet shutting down with shard in flight"

(* Await the result of dispatch [id] on [p].  Returns [`Done] when the
   shard completed or failed cleanly, [`Lost] when the worker consumed
   the dispatch and went idle without answering (dropped result), and
   [`Crashed] on EOF / corrupt stream (after SIGKILLing a hung
   worker, this is also the hang path). *)
let await_result t p ~id ~shard =
  let hang_on = t.cfg.hang_timeout > 0.0 in
  p.heard <- Obs.now ();
  let last_sample = ref (-1, -1) in
  let last_advance = ref (Obs.now ()) in
  let killed = ref false in
  let kill_hung () =
    if not !killed then begin
      killed := true;
      Atomic.incr t.hangs;
      Obs.incr t.obs "svc.fleet.hangs";
      try Unix.kill p.pid Sys.sigkill with Unix.Unix_error _ -> ()
    end
  in
  let rec loop () =
    let timeout = t.cfg.hb_interval in
    match Unix.select [ p.up ] [] [] timeout with
    | exception Unix.Unix_error (EINTR, _, _) -> loop ()
    | [], _, _ ->
      (* silence: no result, no heartbeat.  A busy worker beats every
         [hb_interval], so prolonged silence means the process is
         wedged harder than the cooperative watchdog can see. *)
      if hang_on
         && Obs.now () -. p.heard
            > t.cfg.hang_timeout +. (2.0 *. t.cfg.hb_interval)
      then kill_hung ();
      loop ()
    | _ :: _, _, _ -> (
      match Codec.read p.up with
      | Error (`Closed | `Bad _) -> `Crashed
      | Ok (j, _) -> (
        p.heard <- Obs.now ();
        match jstr j "op" with
        | Some "ok" when jint j "id" = Some id ->
          let counts =
            match Json.member "counts" j with
            | Some (Json.List l) ->
              List.filter_map
                (function
                  | Json.List [ Json.Int i; Json.Int c ] -> Some (i, c)
                  | _ -> None)
                l
            | _ -> []
          in
          let payload =
            match Json.member "payload" j with
            | Some pj -> (
              match Protocol.payload_of_json pj with
              | Ok p -> Some p
              | Error _ -> None)
            | None -> None
          in
          (match (shard.s_kind, payload) with
          | `Whole, None ->
            fail_request t shard.s_req
              "fleet worker returned a malformed whole-request payload"
          | _ -> complete_shard t shard ~counts ~payload);
          `Done
        | Some "fail" when jint j "id" = Some id ->
          fail_request t shard.s_req
            (Option.value ~default:"(no message)" (jstr j "message"));
          `Done
        | Some "hb" -> (
          let busy = Option.value ~default:false (jbool j "busy") in
          let rx = Option.value ~default:0 (jint j "rx") in
          let tx = Option.value ~default:0 (jint j "tx") in
          let done_ = Option.value ~default:0 (jint j "done") in
          let total = Option.value ~default:0 (jint j "total") in
          if (not busy) && rx >= id && tx < id then `Lost
          else begin
            if busy then begin
              if (done_, total) <> !last_sample then begin
                last_sample := (done_, total);
                last_advance := Obs.now ()
              end
              else if
                hang_on && Obs.now () -. !last_advance > t.cfg.hang_timeout
              then kill_hung ()
            end;
            loop ()
          end)
        | _ -> loop ()))
  in
  loop ()

(* One [cat:"fleet"] span per dispatch+await, parented under the
   request's ambient span (the server's execute span).  The id is a
   function of the work — request, cell, chunk range and how many
   dispatches of the shard were lost before — so a re-dispatch gets a
   new id and a rerun of the same request the same ones.  A completed
   dispatch ends when its result frame arrived, before the waiter was
   woken, so the span lies inside its parent.  A dispatch that ends
   after its request has already failed may outlive the parent span;
   it is emitted as a root instead. *)
let trace_dispatch t ~slot p shard ~t0 outcome =
  match shard.s_req.r_trace with
  | None -> ()
  | Some (parent, khash) ->
    let t1 =
      match outcome with `Done -> p.heard | `Lost | `Crashed -> Obs.now ()
    in
    let failed =
      Mutex.lock t.tmu;
      let f = shard.s_req.r_error <> None in
      Mutex.unlock t.tmu;
      f
    in
    let name, range =
      match shard.s_kind with
      | `Cell (cell, lo, hi) ->
        ( Printf.sprintf "shard %d [%d,%d)" cell.Exec.c_index lo hi,
          [ ("cell", cell.Exec.c_index); ("lo", lo); ("hi", hi) ] )
      | `Whole -> ("whole request", [])
    in
    let outcome =
      match outcome with
      | `Done -> "done"
      | `Lost -> "lost"
      | `Crashed -> "crashed"
    in
    Obs.Trace.emit
      { Obs.Trace.id =
          Obs.Trace.span_id
            ([ parent; khash; "fleet"; string_of_int shard.s_attempt ]
            @ List.map (fun (_, v) -> string_of_int v) range);
        parent = (if failed then "" else parent);
        name;
        cat = "fleet";
        start_s = t0;
        dur_s = t1 -. t0;
        args =
          [ ("slot", Json.Int slot); ("gen", Json.Int p.gen) ]
          @ List.map (fun (k, v) -> (k, Json.Int v)) range
          @ [ ("outcome", Json.String outcome) ] }

(* One slot's supervisor: owns the slot's worker process end to end —
   dispatch, liveness, restart — and claims shards from the shared
   queue.  Runs until the queue closes, then tells the worker to
   exit. *)
let supervisor t ~slot =
  let gen = ref 0 in
  let restarts_used = ref 0 in
  let p = ref (spawn t ~slot ~gen:0) in
  set_worker_row t ~slot ~gen:0 ~pid:!p.pid;
  Obs.set_gauge t.obs "svc.fleet.alive" (float_of_int (Atomic.get t.alive));
  let respawn_or_retire () =
    reap !p;
    Atomic.incr t.restarts;
    Obs.incr t.obs "svc.fleet.restarts";
    if !restarts_used >= t.cfg.max_restarts then begin
      drop_worker_row t ~slot;
      let alive = Atomic.fetch_and_add t.alive (-1) - 1 in
      Obs.set_gauge t.obs "svc.fleet.alive" (float_of_int alive);
      if alive <= 0 then
        fail_all t
          (Printf.sprintf "fleet: all workers exhausted their %d restarts"
             t.cfg.max_restarts);
      false
    end
    else begin
      incr restarts_used;
      if t.cfg.restart_backoff > 0.0 then
        Unix.sleepf
          (t.cfg.restart_backoff
          *. Float.of_int (1 lsl min (!restarts_used - 1) 16));
      incr gen;
      p := spawn t ~slot ~gen:!gen;
      set_worker_row t ~slot ~gen:!gen ~pid:!p.pid;
      true
    end
  in
  let rec serve () =
    match Jobq.pop t.squeue with
    | None ->
      (try Codec.write !p.down exit_frame with _ -> ());
      reap !p;
      drop_worker_row t ~slot;
      ignore (Atomic.fetch_and_add t.alive (-1))
    | Some shard ->
      let r = shard.s_req in
      let skip =
        Mutex.lock t.tmu;
        let s = r.r_error <> None in
        Mutex.unlock t.tmu;
        s
      in
      if skip then serve ()
      else begin
        let dispatch =
          match shard.s_kind with
          | `Whole ->
            let id = !p.sent + 1 in
            Some (id, whole_frame ~id ~body:r.r_body, shard)
          | `Cell (cell, lo, hi) -> (
            match narrow_range r.r_store cell ~lo ~hi with
            | None ->
              (* every chunk already in the ledger: complete without
                 burning a worker on it *)
              complete_shard t shard ~counts:[] ~payload:None;
              None
            | Some (lo', hi') ->
              let id = !p.sent + 1 in
              let shard =
                { shard with s_kind = `Cell (cell, lo', hi') }
              in
              Some
                ( id,
                  shard_frame ~id ~body:r.r_body ~cell:cell.Exec.c_index
                    ~lo:lo' ~hi:hi',
                  shard ))
        in
        match dispatch with
        | None -> serve ()
        | Some (id, frame, shard) -> (
          let t0 =
            match r.r_trace with None -> 0.0 | Some _ -> Obs.now ()
          in
          let outcome =
            match Codec.write !p.down frame with
            | () ->
              !p.sent <- id;
              await_result t !p ~id ~shard
            | exception _ ->
              (* the pipe died while the worker was idle: crash path,
                 with the shard never having left our hands *)
              `Crashed
          in
          trace_dispatch t ~slot !p shard ~t0 outcome;
          match outcome with
          | `Done -> serve ()
          | `Lost ->
            requeue t shard;
            serve ()
          | `Crashed ->
            requeue t shard;
            if respawn_or_retire () then serve ())
      end
  in
  serve ()

let create ?(obs = Obs.none) cfg =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  let t =
    { cfg;
      obs;
      squeue = Jobq.create ~capacity:65536;
      tmu = Mutex.create ();
      rcv = Condition.create ();
      active = [];
      workers = [];
      alive = Atomic.make cfg.size;
      spawned = Atomic.make 0;
      restarts = Atomic.make 0;
      redispatched = Atomic.make 0;
      hangs = Atomic.make 0;
      supervisors = ref [] }
  in
  t.supervisors :=
    List.init cfg.size (fun slot ->
        Thread.create (fun () -> supervisor t ~slot) ());
  t

(* Cut a request into shards: aim for [size * shard_factor] shards so
   re-dispatch after a mid-campaign crash loses little work, but never
   split below one chunk. *)
let shards_of_cells t cells =
  let total_chunks =
    List.fold_left (fun acc c -> acc + Exec.nchunks c) 0 cells
  in
  let span =
    max 1 (total_chunks / max 1 (t.cfg.size * t.cfg.shard_factor))
  in
  List.concat_map
    (fun cell ->
      let n = Exec.nchunks cell in
      let rec cut lo acc =
        if lo >= n then List.rev acc
        else
          let hi = min n (lo + span) in
          cut hi ((cell, lo, hi) :: acc)
      in
      cut 0 [])
    cells

let execute t (est : Protocol.estimator) : Protocol.payload =
  let body = Protocol.estimator_to_json est in
  let plan = Exec.plan est in
  let kinds =
    match plan with
    | Whole -> [ `Whole ]
    | Sharded cells ->
      List.map (fun (c, lo, hi) -> `Cell (c, lo, hi)) (shards_of_cells t cells)
  in
  let r =
    { r_est = est;
      r_body = body;
      r_store = Mc.Campaign.in_memory ();
      r_progress =
        Obs.Progress.create
          ~label:(Protocol.estimator_name est)
          ~total:(List.length kinds);
      r_trace =
        (if Obs.Trace.enabled () then
           Some (Obs.Trace.current_parent (), Protocol.hash (Run est))
         else None);
      r_left = List.length kinds;
      r_error = None;
      r_payload = None }
  in
  Mutex.lock t.tmu;
  t.active <- r :: t.active;
  Mutex.unlock t.tmu;
  let detach () =
    Mutex.lock t.tmu;
    t.active <- List.filter (fun r' -> r' != r) t.active;
    Mutex.unlock t.tmu
  in
  Fun.protect ~finally:detach @@ fun () ->
  if Atomic.get t.alive <= 0 then begin
    Obs.Progress.abandon r.r_progress;
    failwith "fleet: no live workers"
  end;
  List.iter
    (fun s_kind ->
      match Jobq.push t.squeue { s_req = r; s_kind; s_attempt = 0 } with
      | Ok () -> ()
      | Error (`Closed | `Overloaded) ->
        fail_request t r "fleet: shard queue unavailable")
    kinds;
  Mutex.lock t.tmu;
  while r.r_left > 0 && r.r_error = None do
    Condition.wait t.rcv t.tmu
  done;
  let verdict = (r.r_error, r.r_payload) in
  Mutex.unlock t.tmu;
  match verdict with
  | Some msg, _ ->
    Obs.Progress.abandon r.r_progress;
    failwith msg
  | None, Some payload ->
    Obs.Progress.finish r.r_progress;
    payload
  | None, None ->
    (* sharded completion: sum the ledger per cell and reassemble *)
    let cells = match plan with Sharded cs -> cs | Whole -> [] in
    let totals = Array.make (List.length cells) 0 in
    List.iter
      (fun (c : Exec.cell) ->
        let job = Exec.job_of_cell c in
        let n = Exec.nchunks c in
        let sum = ref 0 in
        for idx = 0 to n - 1 do
          match Mc.Campaign.find r.r_store ~job ~chunk:idx with
          | Some f -> sum := !sum + f
          | None ->
            failwith
              (Printf.sprintf
                 "fleet: chunk %d of cell %d missing at assembly" idx
                 c.c_index)
        done;
        totals.(c.c_index) <- !sum)
      cells;
    Obs.Progress.finish r.r_progress;
    Exec.assemble est ~totals

type stats = {
  s_size : int;
  s_alive : int;
  s_spawned : int;
  s_restarts : int;
  s_redispatched : int;
  s_hangs : int;
  s_workers : (int * int * int) list;  (* slot, gen, pid *)
}

let stats t =
  Mutex.lock t.tmu;
  let workers = List.sort compare t.workers in
  Mutex.unlock t.tmu;
  { s_size = t.cfg.size;
    s_alive = Atomic.get t.alive;
    s_spawned = Atomic.get t.spawned;
    s_restarts = Atomic.get t.restarts;
    s_redispatched = Atomic.get t.redispatched;
    s_hangs = Atomic.get t.hangs;
    s_workers = workers }

let shutdown t =
  Jobq.close t.squeue;
  List.iter Thread.join !(t.supervisors);
  t.supervisors := []
