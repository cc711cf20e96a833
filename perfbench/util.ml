(* Measurement helpers shared by every workload: clocks, order
   statistics, process counters and the metric record the benchmark
   prints. *)

module Json = Ftqc.Obs.Json

let now = Ftqc.Obs.now

(* Seconds spent in [f ()], with its result. *)
let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* ------------------------------------------------------------ stats *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* Linear-interpolated quantile of a sorted array, q in [0, 1]. *)
let quantile_sorted a q =
  let n = Array.length a in
  if n = 0 then nan
  else if n = 1 then a.(0)
  else
    let h = q *. float_of_int (n - 1) in
    let i = min (truncate h) (n - 2) in
    let f = h -. float_of_int i in
    a.(i) +. (f *. (a.(i + 1) -. a.(i)))

let median xs = quantile_sorted (sorted xs) 0.5

(* The tail: the highest percentile with at least ten samples beyond
   it, 1 - 10/n, which moves smoothly with the sample count.  It is
   kept between p50 (with fewer than 20 samples it is the median,
   although fewer than ten lie beyond) and p95.  Returns (label,
   value). *)
let tail xs =
  let a = sorted xs in
  let n = float_of_int (Array.length a) in
  let q = Float.min 0.95 (Float.max 0.5 (1.0 -. (10.0 /. n))) in
  (Printf.sprintf "p%.0f" (100.0 *. q), quantile_sorted a q)

let mean xs =
  match xs with
  | [] -> nan
  | _ -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

(* ----------------------------------------------------- process state *)

(* A "VmHWM:  1234 kB" style field of /proc/<pid>/status, in kB. *)
let proc_status_kb pid field =
  let file = Printf.sprintf "/proc/%s/status" pid in
  match open_in file with
  | exception Sys_error _ -> 0
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> 0
      | line ->
        let pre = field ^ ":" in
        let lp = String.length pre in
        if String.length line > lp && String.sub line 0 lp = pre then
          Scanf.sscanf
            (String.sub line lp (String.length line - lp))
            " %d" Fun.id
        else scan ()
    in
    Fun.protect ~finally:(fun () -> close_in ic) scan

let peak_rss_mb_of pid = float_of_int (proc_status_kb pid "VmHWM") /. 1024.0
let self_peak_rss_mb () = peak_rss_mb_of "self"

(* Direct children of [pid], from the ppid field of /proc/*/stat. *)
let children pid =
  let ppid_of p =
    match open_in (Printf.sprintf "/proc/%s/stat" p) with
    | exception Sys_error _ -> None
    | ic ->
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          match input_line ic with
          | exception End_of_file -> None
          | line -> (
            (* the command field is parenthesised and may hold spaces *)
            match String.rindex_opt line ')' with
            | None -> None
            | Some i ->
              Scanf.sscanf
                (String.sub line (i + 1) (String.length line - i - 1))
                " %c %d" (fun _ ppid -> Some ppid)))
  in
  Sys.readdir "/proc" |> Array.to_list
  |> List.filter (fun p ->
         p <> "" && p.[0] >= '0' && p.[0] <= '9' && ppid_of p = Some pid)

(* Allocation counters.  [Gc.minor_words] counts the calling domain
   exactly (quick_stat only advances at minor collections), so the
   minor-word figures are taken from one-domain ops. *)
type gc_snap = { minor_words : float; major_collections : int }

let gc_snap () =
  { minor_words = Gc.minor_words ();
    major_collections = (Gc.quick_stat ()).major_collections }

(* ------------------------------------------------------------ files *)

let rec mkdir_p d =
  if d <> "" && d <> "." && d <> "/" && not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let remove_if_exists f = if Sys.file_exists f then Sys.remove f

let file_size f = try (Unix.stat f).Unix.st_size with Unix.Unix_error _ -> 0

(* ---------------------------------------------------------- metrics *)

(* One reported figure.  [exact] marks counts that repeat exactly on a
   rerun of the same seed (they may back a count claim); [derived]
   marks figures computed from other figures rather than timed. *)
type metric = {
  name : string;
  value : float;
  unit_ : string;
  exact : bool;
  derived : bool;
}

let m ?(exact = false) ?(derived = false) name unit_ value =
  { name; value; unit_; exact; derived }

(* A human-readable line per metric, printed before the result. *)
let describe ms =
  List.iter
    (fun x ->
      Printf.printf "  %-34s %16.6g %-6s%s%s\n" x.name x.value x.unit_
        (if x.exact then "  [exact count]" else "")
        (if x.derived then "  [derived]" else ""))
    ms

(* One-line JSON; floats keep all their digits. *)
let rec compact = function
  | Json.Null -> "null"
  | Json.Bool b -> string_of_bool b
  | Json.Int i -> string_of_int i
  | Json.Float f -> Printf.sprintf "%.17g" f
  | Json.String s -> Printf.sprintf "%S" s
  | Json.List l -> "[" ^ String.concat ", " (List.map compact l) ^ "]"
  | Json.Obj kv ->
    "{"
    ^ String.concat ", "
        (List.map (fun (k, v) -> Printf.sprintf "%S: %s" k (compact v)) kv)
    ^ "}"

let result_json ~correct ~attempted ~failed ms =
  Json.Obj
    [ ("correct", Json.Bool correct);
      ("attempted", Json.Int attempted);
      ("failed", Json.Int failed);
      ( "metrics",
        Json.Obj
          (List.map
             (fun x ->
               ( x.name,
                 Json.Obj
                   [ ("value", Json.Float x.value);
                     ("unit", Json.String x.unit_) ] ))
             ms) ) ]
