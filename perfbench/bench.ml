(* perfbench — the repository benchmark.

   bench --workload W --seed N --seconds S --trace 0|1 [--ftqcd PATH]
         [--inject-delay W=FRAC]

   Runs one workload built from the seed, checks every output, prints
   a human-readable report and, as its last line, one JSON object
   {correct, attempted, failed, metrics}.  With --trace 0 the metrics
   are the end-to-end ones; with --trace 1 the per-layer ones, from a
   traced run that also writes an ftqc-trace/1 file.  --inject-delay
   stretches the timed region of workload W by FRAC (the sensitivity
   self-check); other workloads ignore it.  Exit 0 when every output
   checks, 1 on a mismatch (with the result line), 2 on an error
   (without one). *)

open Util

(* Every per-layer metric, with its unit.  A workload that does not
   exercise a layer reports 0 for it. *)
let per_layer =
  [ ("frame.ns_per_shot", "ns"); ("frame.share", "ratio");
    ("steane.classify_ns_per_shot", "ns"); ("toric.decode_calls", "count");
    ("toric.defect_shot_frac", "ratio"); ("toric.decode_ns.L3", "ns");
    ("toric.decode_ns.L5", "ns"); ("toric.decode_ns.L7", "ns");
    ("toric.decode_ns.L9", "ns"); ("toric.decode_share", "ratio");
    ("toric.minor_words_per_decode", "words");
    ("mc.domain_speedup", "ratio"); ("mc.warmup_s", "s");
    ("mc.chunk_wall_p50_s", "s"); ("gc.minor_words_per_shot", "words");
    ("gc.major_collections", "count"); ("campaign.flushes", "count");
    ("campaign.flush_s", "s"); ("campaign.ledger_bytes", "bytes");
    ("campaign.load_s", "s"); ("campaign.replay_ms", "ms");
    ("svc.hit_ratio", "ratio"); ("svc.hit_p50_ms", "ms");
    ("svc.cache_lookup_us", "us"); ("svc.admission_us", "us");
    ("svc.queue_wait_ms", "ms"); ("svc.execute_ms", "ms"); ("svc.encode_ms", "ms");
    ("codec.reply_bytes", "bytes"); ("codec.ping_us", "us");
    ("fleet.dispatch_overhead_ms", "ms"); ("fleet.redispatched", "count");
    ("fleet.restarts", "count"); ("trace.overhead_ms", "ms") ]

let complete measured =
  List.map
    (fun (name, unit_) ->
      match List.find_opt (fun x -> x.name = name) measured with
      | Some x -> x
      | None -> m name unit_ 0.0)
    per_layer

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  ftqcd : string;
  inject : (string * float) option;
  probe : bool;
}

let usage () =
  prerr_endline
    "usage: bench --workload toric-decode|steane-concat|deep-campaign|service-mix \
     --seed N --seconds S --trace 0|1 [--ftqcd PATH] [--inject-delay W=FRAC]";
  exit 2

let parse argv =
  let a =
    ref
      { workload = ""; seed = 1; seconds = 10.0; trace = false;
        ftqcd = "_build/default/bin/ftqcd.exe"; inject = None; probe = false }
  in
  let rec go = function
    | [] -> ()
    | "--workload" :: w :: r -> a := { !a with workload = w }; go r
    | "--seed" :: s :: r -> a := { !a with seed = int_of_string s }; go r
    | "--seconds" :: s :: r -> a := { !a with seconds = float_of_string s }; go r
    | "--trace" :: t :: r -> a := { !a with trace = t = "1" }; go r
    | "--ftqcd" :: f :: r -> a := { !a with ftqcd = f }; go r
    | "--inject-delay" :: spec :: r -> (
      match String.split_on_char '=' spec with
      | [ w; f ] -> a := { !a with inject = Some (w, float_of_string f) }; go r
      | _ -> usage ())
    | "--setup-probe" :: r -> a := { !a with probe = true }; go r
    | _ -> usage ()
  in
  (try go (List.tl (Array.to_list argv)) with Failure _ -> usage ());
  !a

let finish ~attempted ~failed metrics =
  Printf.printf "  attempted %d, failed %d, failed_frac %g\n" attempted failed
    (float_of_int failed /. float_of_int (max attempted 1));
  describe metrics;
  print_endline
    (compact (result_json ~correct:(failed = 0) ~attempted ~failed metrics));
  exit (if failed = 0 then 0 else 1)

let compute_run a spec o =
  let setup =
    median
      (Compute.setup_times ~n:41
         ~argv:
           [| Sys.executable_name; "--setup-probe"; "--workload"; a.workload;
              "--seed"; string_of_int a.seed |])
  in
  if not a.trace then begin
    let ops = Compute.measure spec o ~seconds:a.seconds in
    let rss = self_peak_rss_mb () in
    let v = Compute.check spec o ops in
    finish ~attempted:v.attempted ~failed:v.failed
      (Compute.e2e_of spec ops ~hits:v.hits ~setup ~rss)
  end
  else begin
    let trace_file = Filename.concat o.Compute.workdir "trace.json" in
    let untraced, traced_ops, single, obs, spans, rp, replay_ok, journal =
      Compute.traced spec o ~seconds:a.seconds ~trace_file
    in
    let v = Compute.check spec o (untraced @ traced_ops @ single) in
    let layers =
      Compute.layer_metrics spec ~untraced ~traced_ops ~single ~obs ~spans ~rp
        ~hits:v.hits ~journal
    in
    finish ~attempted:(v.attempted + 1)
      ~failed:(v.failed + if replay_ok then 0 else 1)
      (complete layers)
  end

let service_run a o =
  let module S = Service in
  let domains = o.Compute.domains and workdir = o.workdir in
  let start tag ~trace =
    let d = S.start ~ftqcd:a.ftqcd ~workdir ~tag ~trace in
    S.warm d ~seed:a.seed;
    d
  in
  if not a.trace then begin
    let d, setups = S.started ~ftqcd:a.ftqcd ~workdir ~seed:a.seed ~n:3 in
    let setup = median setups in
    S.warm d ~seed:a.seed;
    let recs, wall = S.drive d ~seed:a.seed ~seconds:a.seconds ~inject:o.inject ~tracing:false in
    let rss = S.rss d in
    S.stop_live d;
    let failed, _ = S.check ~domains ~seed:a.seed recs in
    finish ~attempted:(List.length recs) ~failed
      (S.e2e recs ~wall ~setup ~rss)
  end
  else begin
    let half = a.seconds /. 2.0 in
    let d = start "svcu" ~trace:false in
    let untraced, _ = S.drive d ~seed:a.seed ~seconds:half ~inject:o.inject ~tracing:false in
    S.stop_live d;
    let d = start "svct" ~trace:true in
    let sink = Ftqc.Obs.Trace.sink () in
    Ftqc.Obs.Trace.install (Some sink);
    let traced, _ = S.drive d ~seed:a.seed ~seconds:half ~inject:o.inject ~tracing:true in
    let ping_us = S.ping_rtt_us d ~n:200 in
    let status = S.status d in
    S.stop_live d;
    Ftqc.Obs.Trace.install None;
    let trace_file = Filename.concat workdir "trace.json" in
    Ftqc.Obs.Trace.write sink ~file:trace_file;
    Printf.printf "  trace: %d client spans in %s, daemon spans in %s\n"
      (Ftqc.Obs.Trace.sink_length sink) trace_file
      (Option.value d.S.trace_file ~default:"");
    let failed, exec_s = S.check ~domains ~seed:a.seed (untraced @ traced) in
    finish
      ~attempted:(List.length untraced + List.length traced)
      ~failed
      (complete
         (S.layer_metrics ~untraced ~traced ~status
            ~daemon_trace:(Option.get d.S.trace_file) ~exec_s ~ping_us))
  end

let () =
  let a = parse Sys.argv in
  let workdir = Filename.concat ".perfbench_run" a.workload in
  let inject =
    match a.inject with Some (w, f) when w = a.workload -> f | _ -> 0.0
  in
  let o =
    { Compute.domains = Domain.recommended_domain_count (); workdir; inject;
      obs = Ftqc.Obs.none }
  in
  try
    mkdir_p workdir;
    let compute spec =
      if a.probe then Compute.probe_main spec o
      else begin
        Printf.printf "perfbench %s seed=%d seconds=%g trace=%b domains=%d\n%!"
          a.workload a.seed a.seconds a.trace o.domains;
        compute_run a spec o
      end
    in
    match a.workload with
    | "toric-decode" -> compute (Compute.toric_decode a.seed)
    | "steane-concat" -> compute (Compute.steane_concat a.seed)
    | "deep-campaign" -> compute (Compute.deep_campaign a.seed)
    | "service-mix" ->
      Printf.printf "perfbench service-mix seed=%d seconds=%g trace=%b\n%!" a.seed
        a.seconds a.trace;
      service_run a o
    | _ -> usage ()
  with e ->
    Printf.eprintf "perfbench: %s\n%!" (Printexc.to_string e);
    exit 2
