module Socket = Ilp_tcp.Socket
module Engine = Ilp_core.Engine

type t = {
  sim : Ilp_memsim.Sim.t;
  clock : Ilp_netsim.Simclock.t;
  demux : Ilp_netsim.Demux.t;
  link : Ilp_netsim.Link.t;
  pool : Ilp_fastpath.Pool.t;
  mutable engines : Engine.t list;
}

let create ?tamper sim clock ~seed impairments =
  let demux = Ilp_netsim.Demux.create () in
  let deliver = Ilp_netsim.Demux.deliver demux in
  let link = Ilp_netsim.Link.create clock ~seed ~impairments ?tamper ~deliver () in
  { sim; clock; demux; link; pool = Ilp_fastpath.Pool.create (); engines = [] }

let link t = t.link

let engine t make =
  let e = make t.pool in
  t.engines <- e :: t.engines;
  e

(* A caller may give an engine its own pool, so every distinct pool the
   engines drew on is audited. *)
let teardown t =
  List.iter Engine.destroy t.engines;
  List.fold_left
    (fun pools e ->
      let p = Engine.pool e in
      if List.memq p pools then pools else p :: pools)
    [ t.pool ] t.engines
  |> List.fold_left (fun n p -> n + Ilp_fastpath.Pool.outstanding p) 0

let bind t cfg ~port handler =
  let wire_out = Ilp_netsim.Link.send t.link in
  let s = Socket.create t.sim t.clock cfg ~local_port:port ~wire_out in
  Ilp_netsim.Demux.bind t.demux ~port (handler s);
  s

let socket t cfg ~port = bind t cfg ~port Socket.handle_datagram

type rpc = {
  srv_ctrl : Socket.t;
  cli_ctrl : Socket.t;
  srv_data : Socket.t;
  cli_data : Socket.t;
}

type role = Srv_ctrl | Cli_ctrl | Srv_data | Cli_data

let rpc ?(handler = fun _ -> Socket.handle_datagram) t server ~base ~ctrl ~data =
  let srv_ctrl = bind t ctrl ~port:base (handler Srv_ctrl) in
  let cli_ctrl = bind t ctrl ~port:(base + 1) (handler Cli_ctrl) in
  let srv_data = bind t data ~port:(base + 2) (handler Srv_data) in
  let cli_data = bind t data ~port:(base + 3) (handler Cli_data) in
  ignore (Ilp_rpc.Server.attach server ~ctrl:srv_ctrl ~data:srv_data);
  Socket.listen srv_ctrl;
  Socket.listen cli_data;
  Socket.connect cli_ctrl ~remote_port:base;
  Socket.connect srv_data ~remote_port:(base + 3);
  { srv_ctrl; cli_ctrl; srv_data; cli_data }

let sockets c = [ c.srv_ctrl; c.cli_ctrl; c.srv_data; c.cli_data ]
