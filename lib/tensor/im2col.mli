(** Image-to-column lowering for convolution, in the patch-major layout.

    Converts an HWC image into the patch matrix used by GEMM-based
    convolution, one flattened receptive field per row, and the
    transpose (col2im) used for input gradients. This is the data-copy
    task the Latte compiler synthesizes for convolutional connection
    structures, and the core of the Caffe-like baseline's convolution. *)

type spec = {
  channels : int;
  height : int;
  width : int;
  kernel : int;
  stride : int;
  pad : int;
}

val out_height : spec -> int
val out_width : spec -> int

val col_shape_pm : spec -> Shape.t
(** [(out_height * out_width) x (kernel * kernel * channels)]: each row
    is one receptive field, its taps in (ky, kx, channel) order. *)

val im2col_pm : spec -> src:Tensor.t -> dst:Tensor.t -> unit
(** [src] has HWC shape [height x width x channels]; [dst] has
    {!col_shape_pm}. Out-of-image taps (padding) read as zero. Raises
    [Invalid_argument] when either shape is wrong. *)

val col2im_pm : spec -> src:Tensor.t -> dst:Tensor.t -> unit
(** Scatter-accumulate the patch matrix back into an HWC image: [dst]
    is NOT cleared first, so gradients accumulate, matching the [+=]
    semantics of synthesized backward code. *)
