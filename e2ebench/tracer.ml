(* Host-clock span tracer for the end-to-end benchmark.

   Spans are recorded from outside the stack: the benchmark wraps each
   call it makes into a layer and each callback it hands to one.  A span
   has a name, a start and a duration on the monotonic host clock, the
   enclosing span, the op it served and one integer argument (bytes
   handled).  Minor-heap words are sampled at both ends so allocation can
   be charged per span.

   The log lives in bigarrays outside the OCaml heap, allocated once:
   a traced run must not grow the major heap, or the GC would pace
   differently from the untraced run it is compared with.  [enter] and
   [leave] allocate nothing. *)

open Bigarray

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* Span names.  The [tcp.rx.<role>] names are one per endpoint role. *)
let names =
  [| "clock"; "rpc.request"; "tcp.tx"; "app.verify"; "engine.tx"; "engine.rx";
     "rpc.reply"; "link.send"; "tcp.rx.sender"; "tcp.rx.receiver";
     "tcp.rx.srv_ctrl"; "tcp.rx.srv_data"; "tcp.rx.cli_ctrl"; "tcp.rx.cli_data" |]

let clock = 0
let rpc_request = 1
let tcp_tx = 2
let app_verify = 3
let engine_tx = 4
let engine_rx = 5
let rpc_reply = 6
let link_send = 7
let first_rx = 8
let n_names = Array.length names

type col = (int, int_elt, c_layout) Array1.t

type t = {
  capacity : int;
  mutable len : int;
  mutable lost : int;  (* spans not recorded because the log was full *)
  mutable top : int;  (* innermost open span, -1 at top level *)
  mutable provisional : int;
      (* a span opened by a hook whose closing hook may never fire (the
         server's reply probe fires [before] on every send attempt but
         [after] only on success); -1 when none is open *)
  name : col;
  op : col;
  arg : col;
  parent : col;
  t0 : col;
  t1 : col;
  w0 : col;
  w1 : col;
}

(* Pages are touched only as spans are written, so a generous capacity
   costs address space, not memory. *)
let create ?(capacity = 1 lsl 22) () =
  let col () = Array1.create int c_layout capacity in
  { capacity;
    len = 0;
    lost = 0;
    top = -1;
    provisional = -1;
    name = col ();
    op = col ();
    arg = col ();
    parent = col ();
    t0 = col ();
    t1 = col ();
    w0 = col ();
    w1 = col () }

let minor_words () = int_of_float (Gc.minor_words ())

(* A provisional span still open when anything but its own child starts
   or its parent ends was a failed attempt: forget it, so its (tiny)
   duration stays in the parent's self time. *)
let drop_provisional t =
  let p = t.provisional in
  if p >= 0 then begin
    t.provisional <- -1;
    t.top <- Array1.unsafe_get t.parent p;
    if p = t.len - 1 then t.len <- p
    else begin
      (* It has children after all: keep it as a closed span. *)
      Array1.unsafe_set t.t1 p (now_ns ());
      Array1.unsafe_set t.w1 p (minor_words ())
    end
  end

(* Returns the span's index, or -1 when the log is full. *)
let enter t name ~op ~arg =
  if t.provisional >= 0 && t.top = t.provisional && name <> link_send then
    drop_provisional t;
  if t.len = t.capacity then begin
    t.lost <- t.lost + 1;
    -1
  end
  else begin
    let i = t.len in
    t.len <- i + 1;
    Array1.unsafe_set t.name i name;
    Array1.unsafe_set t.op i op;
    Array1.unsafe_set t.arg i arg;
    Array1.unsafe_set t.parent i t.top;
    t.top <- i;
    Array1.unsafe_set t.w0 i (minor_words ());
    Array1.unsafe_set t.t0 i (now_ns ());
    i
  end

let leave t i =
  if i >= 0 then begin
    Array1.unsafe_set t.t1 i (now_ns ());
    Array1.unsafe_set t.w1 i (minor_words ());
    if t.top <> i && t.provisional >= 0 then drop_provisional t;
    t.top <- Array1.unsafe_get t.parent i
  end

(* Open a span whose closing hook may not fire; see [provisional]. *)
let enter_provisional t name ~op ~arg =
  if t.provisional >= 0 then drop_provisional t;
  t.provisional <- enter t name ~op ~arg

let leave_provisional t =
  let i = t.provisional in
  if i >= 0 then begin
    t.provisional <- -1;
    leave t i
  end

(* Per-name totals over the spans recorded since [from]: calls, inclusive
   and self nanoseconds, self minor words, and the summed argument. *)
type totals = {
  calls : int array;
  incl_ns : float array;
  self_ns : float array;
  self_words : float array;
  args : float array;
}

let totals ?(from = 0) t =
  let z () = Array.make n_names 0.0 in
  let r =
    { calls = Array.make n_names 0; incl_ns = z (); self_ns = z ();
      self_words = z (); args = z () }
  in
  let child_ns = Array.make (max 1 t.len) 0 in
  let child_w = Array.make (max 1 t.len) 0 in
  (* Children always follow their parent in the log. *)
  for i = t.len - 1 downto from do
    let d = t.t1.{i} - t.t0.{i} and w = t.w1.{i} - t.w0.{i} in
    let p = t.parent.{i} in
    if p >= from then begin
      child_ns.(p) <- child_ns.(p) + d;
      child_w.(p) <- child_w.(p) + w
    end;
    let n = t.name.{i} in
    r.calls.(n) <- r.calls.(n) + 1;
    r.incl_ns.(n) <- r.incl_ns.(n) +. float_of_int d;
    r.self_ns.(n) <- r.self_ns.(n) +. float_of_int (d - child_ns.(i));
    r.self_words.(n) <- r.self_words.(n) +. float_of_int (w - child_w.(i));
    r.args.(n) <- r.args.(n) +. float_of_int t.arg.{i}
  done;
  r

(* One line per span: name, op, parent, start (ns after the first span),
   duration ns, minor words, argument. *)
let write_tsv ?(from = 0) t path =
  let oc = open_out path in
  output_string oc "span\tname\top\tparent\tstart_ns\tdur_ns\tminor_words\targ\n";
  let base = if t.len > from then t.t0.{from} else 0 in
  for i = from to t.len - 1 do
    Printf.fprintf oc "%d\t%s\t%d\t%d\t%d\t%d\t%d\t%d\n" i names.(t.name.{i}) t.op.{i}
      t.parent.{i} (t.t0.{i} - base) (t.t1.{i} - t.t0.{i}) (t.w1.{i} - t.w0.{i}) t.arg.{i}
  done;
  close_out oc
