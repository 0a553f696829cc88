(* What every workload receives and returns. *)

type ctx = {
  seed : int;
  seconds : float;              (* length of the measured window *)
  smoke : bool;                 (* tiny sizes, fixed operation counts *)
  trace : Probe.Trace.t option; (* recorder of a traced run *)
  cli : string;                 (* absolute path of the shipped mfti CLI *)
  dir : string;                 (* scratch directory of this run *)
}

type result = {
  metrics : (string * float * string) list;  (* name, value, unit *)
  attempted : int;
  failed : int;
  settings : (string * string) list;
}

let ok = function
  | Ok v -> v
  | Error e -> Linalg.Mfti_error.raise_error e

(* Set-up time is reported as the median of several set-ups, each in
   its own directory: at least 3, more while they total under a second
   (cheap set-ups are noisy), at most 9.  Smoke and traced runs, which
   do not report it, set up once.  [setup dir] returns the state of a
   finished set-up; every set-up but the last is handed to [discard]. *)
let repeated_setup ctx ~setup ~discard =
  let once i =
    let dir = Filename.concat ctx.dir (Printf.sprintf "setup%d" i) in
    Unix.mkdir dir 0o755;
    Probe.timed (fun () -> setup dir)
  in
  let rec go i total times =
    let state, dt = once i in
    let times = dt :: times and total = total +. dt in
    let more =
      (not ctx.smoke) && ctx.trace = None && (i < 2 || (total < 1. && i < 8))
    in
    if more then begin
      discard state;
      go (i + 1) total times
    end
    else (state, Probe.median times)
  in
  go 0 0. []

let ms s = s *. 1e3
