(* The service-mix workload: the real ftqcd daemon (default process
   fleet) on a private socket, driven by two closed-loop client
   connections from this process.  Compute per request is small, so
   admission, cache, codec, fleet dispatch and shard assembly are a
   visible share of every reply. *)

open Util
module Mc = Ftqc.Mc
module Svc = Ftqc.Svc
module P = Svc.Protocol
module Client = Svc.Client
module Trace = Ftqc.Obs.Trace

let clients = 2

(* ----------------------------------------------------------- daemon *)

type daemon = { exe : string; pid : int; socket : string; trace_file : string option }

let ping socket =
  match Client.with_connection ~socket Client.ping with
  | Ok (Ok ()) -> true
  | _ -> false

let stop d =
  let workers = children d.pid in
  (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = now () +. 20.0 in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ when now () < deadline ->
      Unix.sleepf 0.01;
      wait ()
    | 0, _ ->
      (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] d.pid)
    | _ -> ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  wait ();
  (* the daemon reaps its fleet on SIGTERM; make sure of it *)
  List.iter
    (fun p ->
      let cmdline =
        try In_channel.with_open_bin ("/proc/" ^ p ^ "/cmdline") In_channel.input_all
        with Sys_error _ -> ""
      in
      if Filename.basename (List.hd (String.split_on_char '\000' cmdline))
         = Filename.basename d.exe
      then try Unix.kill (int_of_string p) Sys.sigkill with Unix.Unix_error _ -> ())
    workers

let live : daemon list ref = ref []

let () = at_exit (fun () -> List.iter stop !live)

(* Relative paths keep the socket name short wherever the checkout
   lives (Unix socket paths are limited to ~107 bytes). *)
let start ~ftqcd ~workdir ~tag ~trace =
  let socket = Filename.concat workdir (tag ^ ".sock") in
  remove_if_exists socket;
  let trace_file =
    if trace then Some (Filename.concat workdir (tag ^ "-daemon.trace.json"))
    else None
  in
  let log =
    Unix.openfile
      (Filename.concat workdir (tag ^ ".log"))
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ]
      0o644
  in
  let args =
    [ ftqcd; "--socket"; socket; "--workers"; "2"; "--domains"; "1" ]
    @ match trace_file with Some f -> [ "--trace"; f ] | None -> []
  in
  let pid = Unix.create_process ftqcd (Array.of_list args) Unix.stdin log log in
  Unix.close log;
  let d = { exe = ftqcd; pid; socket; trace_file } in
  live := d :: !live;
  let deadline = now () +. 30.0 in
  while not (ping socket) do
    if now () > deadline then failwith "ftqcd did not come up";
    Unix.sleepf 0.002
  done;
  d

let stop_live d =
  stop d;
  live := List.filter (fun x -> x.pid <> d.pid) !live

(* -------------------------------------------------------- the mix *)

(* Three estimators of a few ms of compute each: well inside the
   daemon's 20 ms reply poll, so the tail stays in the first period. *)
let make kind seed : P.estimator =
  match kind with
  | 0 ->
    Toric_memory { l = 5; p = 0.05; trials = 512; seed; engine = `Batch; tile_width = 64 }
  | 1 ->
    Steane_memory
      { level = 2; eps = 0.01; rounds = 1; trials = 4096; seed; engine = `Batch;
        tile_width = 256 }
  | _ ->
    Css_memory
      { code = "golay23"; eps = 0.02; rounds = 1; trials = 2048; seed; engine = `Batch;
        tile_width = 64 }

(* Hot request [i] has estimator [i mod 3]. *)
let hot_set = 6
let hot seed i = make (i mod 3) (Mc.Rng.derive seed [ 4; 0; i ])

(* Request [n] of the seeded sequence.  Every block of six holds one hot
   and one fresh request of each estimator, in a seeded order, so any
   window of the sequence is half cache hits (once the hot set is
   warm) and half misses whatever the seed. *)
let request seed n =
  let block = n / 6 in
  let rng = Mc.Rng.of_key (Mc.Rng.split (Mc.Rng.root (Mc.Rng.derive seed [ 4; 2 ])) block) in
  let order = Array.init 6 Fun.id in
  for i = 5 downto 1 do
    let j = Mc.Rng.int rng (i + 1) in
    let t = order.(i) in
    order.(i) <- order.(j);
    order.(j) <- t
  done;
  let slot = order.(n mod 6) in
  if slot < 3 then hot seed (slot + (3 * (block mod 2)))
  else make (slot - 3) (Mc.Rng.derive seed [ 4; 1; n ])

let shots (est : P.estimator) =
  match est with
  | Toric_memory { trials; _ } | Steane_memory { trials; _ } | Css_memory { trials; _ } ->
    trials
  | _ -> 0

type record = {
  est : P.estimator;
  lat : float;  (** seconds, client side *)
  cached : bool;
  raw : string;  (** result frame bytes; "" on error *)
}

(* One closed-loop client: its own connection, the next request only
   after the previous reply. *)
let client ~socket ~next ~t_end ~inject ~tracing () =
  let fd =
    match Client.connect ~socket with Ok fd -> fd | Error e -> failwith e
  in
  let rec loop acc =
    if now () >= t_end then acc
    else begin
      let n, est = next () in
      let t0 = now () in
      let r = Client.request fd est in
      let t1 = now () in
      if inject > 0.0 then Unix.sleepf (inject *. (t1 -. t0));
      let lat = now () -. t0 in
      let cached, raw =
        match r with
        | Ok o -> (o.Client.cached, o.raw_result)
        | Error _ -> (false, "")
      in
      if tracing then begin
        let key = P.hash (P.Run est) in
        Trace.emit
          { Trace.id = Trace.span_id [ "perfbench"; "request"; string_of_int n ];
            parent = ""; name = Printf.sprintf "client request %d" n; cat = "client";
            start_s = t0; dur_s = lat;
            args =
              [ ("request", Json.Int n); ("key", Json.String key);
                ("cached", Json.Bool cached) ] }
      end;
      loop ({ est; lat; cached; raw } :: acc)
    end
  in
  Fun.protect ~finally:(fun () -> Client.close fd) (fun () -> loop [])

(* Run the mix against [d] for [seconds]: (records, loop wall). *)
let drive d ~seed ~seconds ~inject ~tracing =
  let counter = Atomic.make 0 in
  let next () =
    let n = Atomic.fetch_and_add counter 1 in
    (n, request seed n)
  in
  let t0 = now () in
  let t_end = t0 +. seconds in
  let results = Array.make clients [] in
  let threads =
    List.init clients (fun i ->
        Thread.create
          (fun () ->
            results.(i) <-
              client ~socket:d.socket ~next ~t_end ~inject ~tracing ())
          ())
  in
  List.iter Thread.join threads;
  (List.concat (Array.to_list results), now () -. t0)

(* Set-up: daemon spawn to the first completed (cold) request. *)
let setup_once ~ftqcd ~workdir ~seed k =
  let t0 = now () in
  let d = start ~ftqcd ~workdir ~tag:(Printf.sprintf "svc%d" k) ~trace:false in
  let est =
    P.Toric_memory
      { l = 5; p = 0.05; trials = 64; seed = Mc.Rng.derive seed [ 4; 3; k ];
        engine = `Batch; tile_width = 64 }
  in
  (match Client.request_retrying ~socket:d.socket est with
  | Ok _ -> ()
  | Error e -> failwith ("set-up request: " ^ e.Client.message));
  (d, now () -. t0)

(* Start [n] daemons in turn, keeping the last: (daemon, set-up times). *)
let started ~ftqcd ~workdir ~seed ~n =
  let rec go k acc =
    let d, dt = setup_once ~ftqcd ~workdir ~seed k in
    if k + 1 >= n then (d, List.rev (dt :: acc))
    else begin
      stop_live d;
      go (k + 1) (dt :: acc)
    end
  in
  go 0 []

let warm d ~seed =
  for i = 0 to hot_set - 1 do
    match Client.request_retrying ~socket:d.socket (hot seed i) with
    | Ok _ -> ()
    | Error e -> failwith ("warm-up: " ^ e.Client.message)
  done

let status d =
  match Client.with_connection ~socket:d.socket Client.status with
  | Ok (Ok j) -> j
  | _ -> failwith "status failed"

let rss d =
  let pids = string_of_int d.pid :: children d.pid in
  List.fold_left (fun a p -> a +. peak_rss_mb_of p) 0.0 pids

(* ------------------------------------------------------------ checks *)

(* Every reply must be byte-identical to the result frame of a direct
   in-process [Exec.execute], and the hot set's batch counts must equal
   the scalar-engine cross-check (the fresh requests are too many to
   cross-check each; the hot set covers every estimator of the mix).
   Returns (failed, per-request in-process seconds keyed by request
   hash). *)
let check ~domains ~seed records =
  let expected = Hashtbl.create 512 in
  let exec_s = Hashtbl.create 512 in
  let failed = ref 0 in
  List.iter
    (fun r ->
      let key = P.to_canonical (P.Run r.est) in
      let want =
        match Hashtbl.find_opt expected key with
        | Some w -> w
        | None ->
          let payload, dt = time (fun () -> Svc.Exec.execute ~domains r.est) in
          let w = Svc.Codec.encode (P.result_frame ~key payload) in
          Hashtbl.replace expected key w;
          Hashtbl.replace exec_s (P.hash (P.Run r.est)) dt;
          w
      in
      if r.raw <> want then begin
        incr failed;
        Printf.printf "MISMATCH service-mix: reply to %s\n%!" (P.hash (P.Run r.est))
      end)
    records;
  for i = 0 to hot_set - 1 do
    let est = hot seed i in
    let batch = Compute.cell_failures (Svc.Exec.execute ~domains est) in
    if batch <> Compute.scalar_failures ~domains est then begin
      incr failed;
      Printf.printf "MISMATCH service-mix: hot request %d differs from scalar\n%!" i
    end
  done;
  List.iter
    (fun name ->
      let ms =
        List.filter_map
          (fun r ->
            if P.estimator_name r.est = name then
              Option.map (fun s -> 1e3 *. s)
                (Hashtbl.find_opt exec_s (P.hash (P.Run r.est)))
            else None)
          records
      in
      if ms <> [] then
        Printf.printf "  in-process compute of %s: median %.2f ms\n" name (median ms))
    [ "toric_memory"; "steane_memory"; "css_memory" ];
  (!failed, exec_s)

let e2e records ~wall ~setup ~rss =
  let ok = List.filter (fun r -> r.raw <> "") records in
  let cold = List.filter_map (fun r -> if r.cached then None else Some r.lat) ok in
  let hits = List.filter_map (fun r -> if r.cached then Some r.lat else None) ok in
  let label, cold_tail = tail cold in
  Printf.printf "  %d requests (%d cold, %d hits); cold_tail_ms is %s of %d samples\n"
    (List.length records) (List.length cold) (List.length hits) label
    (List.length cold);
  Printf.printf "  cache-hit latency: %.3f ms median\n" (1e3 *. median hits);
  [ m "shots_per_s" "1/s"
      (float_of_int (List.fold_left (fun a r -> a + shots r.est) 0 ok) /. wall);
    m "requests_per_s" "1/s" (float_of_int (List.length ok) /. wall);
    m "cold_p50_ms" "ms" (1e3 *. median cold);
    m "cold_tail_ms" "ms" (1e3 *. cold_tail);
    m "setup_s" "s" setup;
    m "peak_rss_mb" "MB" rss ]

(* ------------------------------------------------------- layer view *)

let json_path j path =
  List.fold_left (fun acc k -> Option.bind acc (Json.member k)) (Some j) path

let json_num j path =
  match json_path j path with
  | Some v -> Option.value (Json.to_float_opt v) ~default:0.0
  | None -> 0.0

(* (name, dur µs, span_id, parent, args) of every event of a trace. *)
let events file =
  match Json.read_file file with
  | Error e -> failwith e
  | Ok j ->
    (match Trace.validate j with Ok _ -> () | Error e -> failwith e);
    let evs =
      match Json.member "traceEvents" j with Some (Json.List l) -> l | _ -> []
    in
    List.map
      (fun e ->
        let s k = Option.bind (json_path e k) Json.to_string_opt in
        ( Option.value (s [ "name" ]) ~default:"",
          json_num e [ "dur" ],
          Option.value (s [ "args"; "span_id" ]) ~default:"",
          Option.value (s [ "args"; "parent" ]) ~default:"",
          Option.value (s [ "args"; "key" ]) ~default:"" ))
      evs

let layer_metrics ~untraced ~traced ~status ~daemon_trace ~exec_s ~ping_us =
  let evs = events daemon_trace in
  let durs name =
    List.filter_map (fun (n, d, _, _, _) -> if n = name then Some d else None) evs
  in
  let med_or_0 = function [] -> 0.0 | xs -> median xs in
  let mean_or_0 = function [] -> 0.0 | xs -> mean xs in
  (* request span id -> request hash, to pair each execute span with
     the in-process time of the same request *)
  let key_of = Hashtbl.create 512 in
  List.iter
    (fun (n, _, id, _, key) ->
      if String.length n > 8 && String.sub n 0 8 = "request " then
        Hashtbl.replace key_of id key)
    evs;
  let dispatch =
    List.filter_map
      (fun (n, d, _, parent, _) ->
        if n <> "execute" then None
        else
          match Hashtbl.find_opt key_of parent with
          | None -> None
          | Some key ->
            Option.map
              (fun s -> (d /. 1e3) -. (1e3 *. s))
              (Hashtbl.find_opt exec_s key))
      evs
  in
  let counter k = json_num status [ "metrics"; "counters"; k ] in
  let hits = counter "svc.cache_hits" and misses = counter "svc.cache_misses" in
  let ok rs = List.filter (fun r -> r.raw <> "") rs in
  let lat_ms ~cached rs =
    1e3 *. med_or_0 (List.filter_map (fun r -> if r.cached = cached then Some r.lat else None) (ok rs))
  in
  [ m "svc.hit_ratio" "ratio" (if hits +. misses = 0.0 then 0.0 else hits /. (hits +. misses));
    m "svc.hit_p50_ms" "ms" (lat_ms ~cached:true traced);
    m "svc.cache_lookup_us" "us" (mean_or_0 (durs "cache lookup"));
    m "svc.admission_us" "us" (mean_or_0 (durs "admission"));
    m "svc.queue_wait_ms" "ms" (med_or_0 (durs "queue wait") /. 1e3);
    m "svc.execute_ms" "ms" (med_or_0 (durs "execute") /. 1e3);
    m "svc.encode_ms" "ms" (med_or_0 (durs "encode result") /. 1e3);
    m "codec.reply_bytes" "bytes"
      (mean_or_0 (List.map (fun r -> float_of_int (String.length r.raw)) (ok traced)));
    m "codec.ping_us" "us" ping_us;
    m ~derived:true "fleet.dispatch_overhead_ms" "ms" (med_or_0 dispatch);
    m ~exact:true "fleet.redispatched" "count" (json_num status [ "fleet"; "redispatched" ]);
    m ~exact:true "fleet.restarts" "count" (json_num status [ "fleet"; "restarts" ]);
    m ~derived:true "trace.overhead_ms" "ms" (lat_ms ~cached:false traced -. lat_ms ~cached:false untraced) ]

let ping_rtt_us d ~n =
  match Client.connect ~socket:d.socket with
  | Error e -> failwith e
  | Ok fd ->
    Fun.protect
      ~finally:(fun () -> Client.close fd)
      (fun () ->
        1e6
        *. median
             (List.init n (fun _ ->
                  snd (time (fun () -> ignore (Client.ping fd))))))
