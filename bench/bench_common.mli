(** Shared infrastructure for the figure-reproduction benchmarks. *)

val bench_scale : Models.scale
(** Reduced model scale measured for real on this container's single
    core (documented in EXPERIMENTS.md). *)

val model_scale : Models.scale
(** Larger scale used by the analytical cost model for paper-scale
    projections. *)

type measured = {
  fwd : float;
  bwd : float;  (** Seconds per batch (median of repeats). *)
}

val both : measured -> float

val interleaved :
  rounds:int -> (unit -> unit) -> (unit -> unit) -> float array * float array
(** [interleaved ~rounds a b] calls [a] and [b] once each untimed, then
    times one call of each per round, alternating which goes first, and
    returns each side's [rounds] times in ms. On a shared host, timing
    all of one side and then all of the other lets the host's drift
    decide the ratio. *)

val measure_latte :
  ?config:Config.t ->
  ?opts:Executor.Run_opts.t ->
  ?iters:int ->
  Net.t ->
  measured * Executor.t
(** Compile + run with random inputs; [opts] selects the executor's
    run options (domain count included). *)

val measure_caffe : ?iters:int -> params_from:Executor.t -> Net.t -> measured
val measure_mocha : ?iters:int -> params_from:Executor.t -> Net.t -> measured

val modeled_time :
  ?vectorized:bool -> Machine.cpu -> Config.t -> Net.t ->
  [ `Forward | `Backward | `Both ] -> float
(** Compile under the config and cost the program on the machine. *)

val header : string -> unit
(** Print a figure banner. *)

val row : string -> float list -> unit
(** Aligned table row: label then numeric columns (printed with %g
    precision appropriate for speedups/throughputs). *)

val note : string -> unit

(** {1 Bench rows}

    Every machine-readable result is one JSON object on its own stdout
    line, and no bench opens a file. Its keys are fixed and always in
    this order:

    - ["bench"]: the bench ([scaling], [precision], [cancel], [tuned],
      [fleet]);
    - ["case"]: the stock model, or the fleet scenario;
    - ["preset"]: the precision preset that ran ([f32] or [int8]);
    - ["scope"]: what else the measurement was taken under, such as
      ["domains=4"], else [""];
    - ["name"] and ["value"]: one metric and its number;
    - ["unit"]: [ms], [bytes], [%], [x] (a ratio), [count], [bool]
      (1 or 0), or [""] when the number has none.

    A row that summarizes repeated timings adds ["p10"], ["p90"] and
    ["n"] ({!Executor.percentile}'s nearest rank over [n] samples), and
    a row may end in a string ["detail"] (the tuned bench's winning
    schedule). Integral values, counts and booleans among them, print
    as integers, other numbers to six significant digits, and a
    non-finite number as [null]. So
    [grep '^{"bench":'] over any bench output collects its rows. *)

val emit :
  bench:string ->
  case:string ->
  preset:string ->
  ?scope:string ->
  ?samples:float array ->
  ?detail:string ->
  unit:string ->
  string ->
  float ->
  unit
(** [emit ~bench ~case ~preset ~unit name value] prints one row.
    [samples] (in [unit]) adds their p10, p90 and count; [scope]
    defaults to [""]. *)
