(** Synthetic datasets.

    The paper evaluates on ImageNet 2012 and MNIST, which are not
    available offline; these generators produce (a) deterministic image
    batches for throughput benchmarks, where pixel content is
    irrelevant, and (b) learnable classification problems for the
    accuracy experiment (Figure 20), where what matters is that real
    training with real gradients reaches a high, reproducible accuracy. *)

type dataset = {
  features : Tensor.t;  (** [n; item dims...]. *)
  labels : Tensor.t;  (** [n], class index stored as float. *)
  n_classes : int;
}

val gaussian_classes :
  seed:int ->
  n:int ->
  n_classes:int ->
  item_shape:int list ->
  separation:float ->
  dataset
(** Each class is an isotropic Gaussian around a random prototype;
    [separation] scales prototype distance relative to the unit noise,
    so ~2.0 is easy and ~0.5 is hard. *)

val mnist_like :
  ?image:int ->
  ?channels:int ->
  ?n_classes:int ->
  seed:int ->
  n:int ->
  unit ->
  dataset
(** An MNIST-like stand-in: smooth low-frequency class prototypes
    rendered at [image]x[image]x[channels] (default 1; every channel
    holds the same gray value), with per-sample pixel noise and random
    ±2px shifts — enough structure that an MLP trains to >97% like the
    paper's MNIST setup, while requiring translation robustness. *)

val split : dataset -> at:int -> dataset * dataset
(** Train/eval split: the first [at] items and the rest (views, no
    copy). *)

val fill_batch :
  dataset -> batch_index:int -> data:Tensor.t -> labels:Tensor.t -> unit
(** Copy batch [batch_index] (wrapping around the dataset) into the
    network's data and label buffers; [data] has shape
    [batch; item dims...]. *)
