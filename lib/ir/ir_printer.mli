(** Pretty-printing of the loop IR, used by tests, the CLI's
    [--dump-ir] mode, and compiler debugging. The output mirrors the
    pseudo-code listings in the paper (Figures 9, 10 and 12). *)

val iexpr_to_string : Ir.iexpr -> string
val fexpr_to_string : Ir.fexpr -> string
val stmt_to_string : Ir.stmt -> string
val stmts_to_string : Ir.stmt list -> string
