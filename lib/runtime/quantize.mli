(** Post-training int8 quantization over a compiled program's buffer
    pool.

    The flow is plan → calibrate → apply → re-prepare:

    {ol
    {- {!int8_candidates} picks the buffers whose storage may narrow:
       matrix/tensor-shaped parameter values and activations written by
       forward sections — excluding anything an [Extern] touches
       (externs need the raw f32 view), anything sum-accumulated into
       (packed [Acc_sum] re-rounds every partial update), gradient
       buffers, biases (rank < 2, or [n; 1] columns), and the caller's
       [keep] list (inputs, labels, loss, logits).}
    {- {!calibrate} runs forward passes over calibration batches and
       records each candidate's largest finite absolute value; NaN and
       the infinities are skipped, so an infinity in a batch saturates
       at encode like any value past the range.}
    {- {!apply} repacks the physical blocks in place at int8 with the
       symmetric scale [absmax/127].}
    {- The executor is re-prepared: compiled sections resolve buffer
       stores eagerly, so code generated before the repack still
       targets the old f32 storage.}}

    {!quantize} runs all four steps. *)

val int8_candidates : ?keep:string list -> Program.t -> string list
(** Buffers eligible for int8 packing, physically deduplicated, in
    (parameters, forward-written) order. *)

val calibrate :
  exec:Executor.t ->
  feed:(int -> unit) ->
  ?batches:int ->
  string list ->
  (string * float) list
(** [calibrate ~exec ~feed bufs] runs [batches] (default 4) forward
    passes — [feed i] loads batch [i] — and returns each buffer's
    observed absmax across all batches, over finite values
    ({!Tensor.store_absmax}). Must run before {!apply} (the
    scan reads the still-f32 contents). *)

val apply : Program.t -> (string * float) list -> int
(** Repack each [(buf, absmax)] at int8 with the symmetric scale from
    its absmax. Buffers whose physical block is already packed are
    skipped. Returns the number of physical blocks repacked. The
    caller re-prepares any executor of the program afterwards. *)

val quantize :
  feed:(int -> unit) ->
  ?batches:int ->
  ?keep:string list ->
  Executor.t ->
  Executor.t * int
(** [quantize ~feed exec] plans, calibrates through [exec] and applies
    on [Executor.program exec], then returns the executor to run and
    the number of physical blocks packed. When nothing packs that is
    [exec] itself; otherwise it is a fresh executor prepared under
    [Executor.run_opts exec], and [exec] must not run again. *)
