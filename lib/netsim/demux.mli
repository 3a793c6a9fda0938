(** Kernel-side port demultiplexing.

    "On the receiving side, the kernel part demultiplexes IP packets to the
    corresponding user-level TCP connection, i.e. to the corresponding
    application."  Packets for unbound ports are counted and dropped. *)

type t

val create : unit -> t

(** [bind t ~port handler] routes datagrams addressed to [port] to
    [handler].  Raises [Invalid_argument] if the port is taken. *)
val bind : t -> port:int -> (Datagram.t -> unit) -> unit

val unbind : t -> port:int -> unit

(** [deliver t dgram] routes by destination port. *)
val deliver : t -> Datagram.t -> unit

(** Datagrams dropped for lack of a bound port. *)
val unroutable : t -> int
