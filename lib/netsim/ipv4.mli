(** Minimal IPv4: the layer the paper's kernel part hands TCP segments to
    ("for sending data, the main task of the kernel part is to pass the
    messages received from the user-level TCP to IP").

    Fixed 20-byte headers (no options), the RFC 1071 header checksum, and
    no fragmentation — the stack keeps one TSDU in one TPDU in one
    datagram, as the ALF design demands; a too-big packet is a send-time
    error, not a fragmentation event. *)

type t = {
  tos : int;
  total_len : int;  (** header + payload, bytes *)
  ident : int;
  ttl : int;
  protocol : int;
  src : int;  (** 32-bit address *)
  dst : int;
}

val header_len : int
(** 20 bytes. *)

val protocol_tcp : int
(** 6 *)

(** The loopback addresses used by the simulated hosts. *)
val loopback : int

val make :
  ?tos:int -> ?ident:int -> ?ttl:int -> ?protocol:int -> src:int -> dst:int ->
  payload_len:int -> unit -> t

(** [encapsulate t payload] is the wire datagram payload: header (with a
    correct checksum) followed by [payload]. *)
val encapsulate : t -> string -> string

(** [frame t src ~pos ~len] is [encapsulate t] of the [len] bytes of
    [src] from [pos], built with one allocation. *)
val frame : t -> Bytes.t -> pos:int -> len:int -> string

(** [validate wire] checks version, header length, total length and header
    checksum, returning the header; the payload is the rest of [wire],
    from offset {!header_len}.  Copies nothing. *)
val validate : string -> (t, string) result

(** [decapsulate wire] is {!validate} returning a copy of the payload
    too. *)
val decapsulate : string -> (t * string, string) result

(** [header_checksum bytes] computes the checksum of a 20-byte header
    string with its checksum field zeroed (exposed for tests). *)
val header_checksum : string -> int
