(** Validated, atomic parameter checkpointing.

    Saves and restores the learnable parameters of a compiled program
    in a small self-describing binary format, so training can resume
    and trained models can be shared between program instances —
    including instances compiled under *different* optimization
    configurations, since parameter buffer names and layouts depend
    only on the network description.

    Format (version 2): the magic ["LATTECKPT2"], a format-version
    word, a tensor count, then per tensor its name, rank, dimensions,
    a CRC-32 of the float32 payload, and the payload itself
    (little-endian IEEE-754 bits). Any other file, a version-1 one
    (["LATTECKPT1"], no checksums) included, is rejected: without a
    checksum a damaged payload would load as wrong weights.

    Robustness guarantees:

    - {b Atomic writes}: {!save} writes to a temp file in the same
      directory and [rename]s it over [path] only after a complete,
      flushed write — a crash mid-save (including an armed
      {!Fault.Crash_save}) leaves any previous checkpoint at [path]
      intact and loadable.
    - {b Two-phase loads}: {!load} fully parses and validates the file
      (magic, version, names, shapes, checksums) into side buffers
      before touching any live tensor. A truncated, corrupted, or
      architecture-mismatched file raises {!Corrupt} and leaves the
      program's parameters bit-identical to their pre-call state. *)

exception Corrupt of string
(** The file is not a valid checkpoint for this program: bad magic or
    version, truncation, a checksum mismatch, or a name/shape set that
    does not match the program's parameters. The message says which. *)

val save : ?faults:Fault.t -> Executor.t -> string -> unit
(** Atomically write every learnable parameter buffer to [path].
    [faults] threads the fault plan's crash-during-write hook through
    the writer (default: no faults). *)

val load : Executor.t -> string -> unit
(** Restore parameters from [path] into the program's buffers after
    full validation. Raises {!Corrupt} on any invalid or mismatched
    file, in which case no live buffer has been modified. *)

val save_buffers :
  ?faults:Fault.t -> lookup:(string -> Tensor.t) -> names:string list ->
  string -> unit
(** Lower-level entry point: atomically write the given buffers. *)
