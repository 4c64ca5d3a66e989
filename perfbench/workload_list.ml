(* Every workload the command runs; BENCHMARK.json declares each. *)
let all = [ ("train-vgg", Train_vgg.run); ("serve-int8", Serve.run Serve.int8_params) ]
