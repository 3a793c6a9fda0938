(* Global per-layer byte counters for the host data path, kept in the
   metrics registry (the only store).  A bump is one counter increment,
   so charging from the hot loops allocates nothing — the same spirit as
   the paper's atom/cachesim counts, but for the un-simulated (native)
   lane and the engine's host-side buffer management. *)

type layer = Marshal | Cipher | Checksum | Tcp | Rpc | Pool

let layer_index = function
  | Marshal -> 0
  | Cipher -> 1
  | Checksum -> 2
  | Tcp -> 3
  | Rpc -> 4
  | Pool -> 5

let layer_name = function
  | Marshal -> "marshal"
  | Cipher -> "cipher"
  | Checksum -> "checksum"
  | Tcp -> "tcp"
  | Rpc -> "rpc"
  | Pool -> "pool"

let layers = [ Marshal; Cipher; Checksum; Tcp; Rpc; Pool ]

module M = Ilp_obs.Metrics

(* Counter grids indexed [kind][layer]: [total] is charged by both
   directions; [rx] counts the receive-side share, charged by the [*_rx]
   entry points the rx code paths call.  The send share is the
   difference. *)
let k_read = 0
let k_write = 1
let k_copy = 2
let k_alloc = 3
let k_blocks = 4

let grid prefix =
  Array.of_list
    (List.map
       (fun kind ->
         Array.of_list
           (List.map
              (fun l -> M.counter M.default (prefix ^ layer_name l ^ "." ^ kind))
              layers))
       [ "read_bytes"; "written_bytes"; "copied_bytes"; "allocated_bytes";
         "alloc_blocks" ])

let total = grid "mem."
let rx = grid "mem.rx."

let charge g k l n = M.inc g.(k).(layer_index l) n

let read l n = charge total k_read l n
let write l n = charge total k_write l n

let inplace l n =
  read l n;
  write l n

let copied l n =
  inplace l n;
  charge total k_copy l n

let alloc l n =
  charge total k_alloc l n;
  charge total k_blocks l 1

let read_rx l n =
  read l n;
  charge rx k_read l n

let write_rx l n =
  write l n;
  charge rx k_write l n

let inplace_rx l n =
  inplace l n;
  charge rx k_read l n;
  charge rx k_write l n

let copied_rx l n =
  copied l n;
  charge rx k_read l n;
  charge rx k_write l n;
  charge rx k_copy l n

let alloc_rx l n =
  alloc l n;
  charge rx k_alloc l n;
  charge rx k_blocks l 1

type snapshot = { s_total : int array array; s_rx : int array array }

let values g = Array.map (Array.map M.counter_value) g
let snapshot () = { s_total = values total; s_rx = values rx }

let diff later earlier =
  let d = Array.map2 (Array.map2 ( - )) in
  { s_total = d later.s_total earlier.s_total; s_rx = d later.s_rx earlier.s_rx }

let sum g k = Array.fold_left ( + ) 0 g.(k)

let reads_total s = sum s.s_total k_read
let writes_total s = sum s.s_total k_write
let copied_total s = sum s.s_total k_copy
let allocated_total s = sum s.s_total k_alloc
let alloc_blocks_total s = sum s.s_total k_blocks
let copied_rx_total s = sum s.s_rx k_copy
let allocated_rx_total s = sum s.s_rx k_alloc
let copied_tx_total s = copied_total s - copied_rx_total s
let allocated_tx_total s = allocated_total s - allocated_rx_total s

let layer_row g l =
  let i = layer_index l in
  (g.(k_read).(i), g.(k_write).(i), g.(k_copy).(i), g.(k_alloc).(i))

let of_layer s l = layer_row s.s_total l
let of_layer_rx s l = layer_row s.s_rx l
