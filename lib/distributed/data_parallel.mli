(** In-process data-parallel training with synchronized or lossy
    gradients (§3.1, §7.3 / Figure 20).

    Instantiates one compiled replica per worker (identical initial
    parameters). Each step, workers compute gradients on disjoint batch
    shards; then either

    - [Synchronized]: gradients are summed (the runtime's gradient
      summation) and one update is applied, after which parameters are
      broadcast back — semantically one large-batch SGD step; or
    - [Lossy]: every worker's gradient — all computed from the *same
      stale* parameters — is applied as its own update in sequence,
      reproducing the unsynchronized in-place updates Project Adam and
      Latte's ∇-field mode allow.

    Figure 20's claim is that the two reach the same accuracy.

    {b Elasticity}: an armed {!Fault.Kill_worker} in [faults] removes a
    worker's compute role mid-run. In [Synchronized] mode its batch
    slice is re-sharded round-robin across the survivors (every slice
    is still computed, so a fixed seed plus a fixed fault plan yields a
    deterministic run); in [Lossy] mode the dead replica's update is
    simply skipped. Worker 0's replica doubles as the parameter master,
    so killing worker 0 only removes its compute. The run fails only
    when every worker is dead. *)

type mode = Synchronized | Lossy

type t

val create :
  ?seed:int ->
  ?faults:Fault.t ->
  workers:int ->
  config:Config.t ->
  build:(unit -> Models.spec) ->
  solver_method:Solver.method_ ->
  solver_params:Solver.params ->
  mode ->
  t

val alive_workers : t -> step:int -> int list
(** Workers whose compute role survives at [step] under the fault plan
    (everyone when no kill fault is armed). *)

val step : t -> data:Synthetic.dataset -> batch_index:int -> float
(** One data-parallel step over [workers] consecutive batch shards;
    returns the mean loss across the computed shards. Raises [Failure]
    if the fault plan has killed every worker. *)

val train :
  t -> data:Synthetic.dataset -> iters:int ->
  ?log:(iter:int -> loss:float -> unit) -> unit -> unit

val accuracy : t -> data:Synthetic.dataset -> float
(** Top-1 accuracy of worker 0's replica (all replicas agree after a
    synchronized step; in lossy mode replicas share the final merged
    parameters). *)
