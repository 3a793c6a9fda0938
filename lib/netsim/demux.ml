type t = {
  handlers : (int, Datagram.t -> unit) Hashtbl.t;
  mutable unroutable : int;
}

let create () = { handlers = Hashtbl.create 16; unroutable = 0 }

let bind t ~port handler =
  if Hashtbl.mem t.handlers port then
    invalid_arg (Printf.sprintf "Demux.bind: port %d already bound" port);
  Hashtbl.replace t.handlers port handler

let unbind t ~port = Hashtbl.remove t.handlers port

let deliver t (dgram : Datagram.t) =
  match Hashtbl.find_opt t.handlers dgram.Datagram.dst_port with
  | Some handler -> handler dgram
  | None -> t.unroutable <- t.unroutable + 1

let unroutable t = t.unroutable
