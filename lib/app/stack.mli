(** The composition root that wires every simulated world: the
    link-demux-socket knot, the RPC port plan and bring-up order, and the
    pool audit (DESIGN §18).  The caller keeps the memory and the clock.
    Sockets, engines and charged ciphers allocate simulated memory in call
    order, so the order of calls into this module is simulated behaviour. *)

type t

(** A link with [impairments] and [seed] delivering into a fresh demux;
    [tamper] sees every datagram the world's sockets send. *)
val create :
  ?tamper:(Ilp_netsim.Datagram.t -> Ilp_netsim.Datagram.t list) ->
  Ilp_memsim.Sim.t -> Ilp_netsim.Simclock.t -> seed:int ->
  Ilp_netsim.Link.impairments -> t

val link : t -> Ilp_netsim.Link.t

(** [engine t make] is [make pool] on the world's pool, recorded for
    {!teardown}. *)
val engine : t -> (Ilp_fastpath.Pool.t -> Ilp_core.Engine.t) -> Ilp_core.Engine.t

(** Destroy every recorded engine; return the buffers still outstanding
    from the pools they drew on. *)
val teardown : t -> int

(** A socket on the world's link bound to [port]; [Invalid_argument] if
    the port is bound. *)
val socket : t -> Ilp_tcp.Socket.config -> port:int -> Ilp_tcp.Socket.t

(** One RPC connection: control client → server for requests, data
    server → client for replies, each one-way as in the paper. *)
type rpc = {
  srv_ctrl : Ilp_tcp.Socket.t;  (** port [base], listens *)
  cli_ctrl : Ilp_tcp.Socket.t;  (** port [base + 1], connects to [base] *)
  srv_data : Ilp_tcp.Socket.t;  (** port [base + 2], connects to [base + 3] *)
  cli_data : Ilp_tcp.Socket.t;  (** port [base + 3], listens *)
}

type role = Srv_ctrl | Cli_ctrl | Srv_data | Cli_data

(** Create and bind the four sockets in port order ([ctrl] and [data]
    configs; demux entry [handler role socket], default
    [Socket.handle_datagram socket]), attach the server pair to [server]
    and start both handshakes.  The caller runs the clock and builds the
    client on [cli_ctrl] and [cli_data]. *)
val rpc :
  ?handler:(role -> Ilp_tcp.Socket.t -> Ilp_netsim.Datagram.t -> unit) ->
  t -> Ilp_rpc.Server.t -> base:int -> ctrl:Ilp_tcp.Socket.config ->
  data:Ilp_tcp.Socket.config -> rpc

(** The four sockets in port order. *)
val sockets : rpc -> Ilp_tcp.Socket.t list
