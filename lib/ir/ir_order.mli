(** Stride-aware loop permutation over perfect innermost loop bands.

    The paper's AoS→SoA transform (§5.3) exists so that the innermost
    loop walks memory with unit stride. The synthesizer does not always
    put that loop innermost: a padded convolution's gather puts the
    clamped spatial loops inside the channel loop, and a pooling nest
    puts its window loops inside the channel loop. At small spatial
    sizes those loops run 1–4 iterations at a stride of hundreds of
    elements, while the channel loop outside them is long and
    contiguous in every buffer.

    A {e band} is a chain of [For]s, each the only statement of its
    parent, ending in one [Store] or [Accum]. For each band the step
    moves innermost one loop [c] that:
    - steps the destination by exactly 1 element and every load by 0
      or 1 (row-major, against the buffer shapes);
    - has a trip bound ({!Ir_bounds.range} of [hi − lo]) at least half
      that of the current innermost loop, so the innermost loop is
      entered at most twice as often as before;
    - is not the batch loop or a tile loop, and no loop inside it has
      a bound that mentions [c] (clamped spatial bounds depend on
      their window loop);
    - is proven {!Ir_deps.Independent} for every buffer the band
      touches.
    A band whose innermost loop already steps the destination by 1 is
    left alone.

    Bit identity: since no inner bound mentions [c] and [c]'s bounds
    only mention loops outside it, the iteration set is unchanged.
    Independence means that any element written in one iteration of
    [c] is touched in no other, so all accesses to an element happen
    within one value of [c], and the permutation keeps their relative
    order. Each element therefore receives the same contributions in
    the same order, and every output bit is unchanged.

    The analysis is name-based, like {!Ir_deps}. Two names that share
    storage must address the same element, as in-place activations
    do; otherwise a dependence between them goes unseen. *)

val sink_unit_stride :
  ?batch_var:string ->
  shape_of:(string -> int array option) ->
  Ir.stmt list ->
  Ir.stmt list
(** Apply the step to every band in the statements. [batch_var] names
    the batch loop, which never moves; loops carrying tile metadata
    never move either. *)
