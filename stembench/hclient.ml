(* A keep-alive HTTP/1.1 client: one TCP connection carries every
   request of a run, so a measured round trip is the server's work plus
   one loopback exchange — not a connect/accept/close per request as
   with [Serve.Client]. *)

type t = {
  fd : Unix.file_descr;
  buf : Bytes.t;
  mutable pos : int;  (* unread bytes are buf[pos, lim) *)
  mutable lim : int;
}

let connect port =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 30.0;
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  { fd; buf = Bytes.create 65536; pos = 0; lim = 0 }

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()

let fill t =
  if t.pos > 0 then begin
    Bytes.blit t.buf t.pos t.buf 0 (t.lim - t.pos);
    t.lim <- t.lim - t.pos;
    t.pos <- 0
  end;
  let n = Unix.read t.fd t.buf t.lim (Bytes.length t.buf - t.lim) in
  if n = 0 then failwith "connection closed by server";
  t.lim <- t.lim + n

(* Index of "\r\n\r\n" in the unread bytes, if present. *)
let head_end t =
  let rec go i =
    if i + 3 >= t.lim then None
    else if
      Bytes.get t.buf i = '\r'
      && Bytes.get t.buf (i + 1) = '\n'
      && Bytes.get t.buf (i + 2) = '\r'
      && Bytes.get t.buf (i + 3) = '\n'
    then Some i
    else go (i + 1)
  in
  go t.pos

let content_length head =
  let lower = String.lowercase_ascii head in
  let key = "\r\ncontent-length:" in
  match Util.find lower key with
  | None -> 0
  | Some i ->
    let j = i + String.length key in
    let k = try String.index_from lower j '\r' with Not_found -> String.length lower in
    int_of_string (String.trim (String.sub lower j (k - j)))

let read_response t =
  let rec head () =
    match head_end t with
    | Some i -> i
    | None ->
      if t.lim = Bytes.length t.buf && t.pos = 0 then failwith "response head too large";
      fill t;
      head ()
  in
  let i = head () in
  let head = Bytes.sub_string t.buf t.pos (i - t.pos) in
  t.pos <- i + 4;
  let status =
    match String.split_on_char ' ' head with
    | _ :: code :: _ -> int_of_string code
    | _ -> failwith ("bad status line: " ^ head)
  in
  let len = content_length head in
  let body = Buffer.create len in
  let need = ref len in
  while !need > 0 do
    if t.pos = t.lim then fill t;
    let k = min !need (t.lim - t.pos) in
    Buffer.add_subbytes body t.buf t.pos k;
    t.pos <- t.pos + k;
    need := !need - k
  done;
  (status, Buffer.contents body)

let rec write_all fd s off len =
  if len > 0 then begin
    let n = Unix.write_substring fd s off len in
    write_all fd s (off + n) (len - n)
  end

(* One request and its response: [(status, body)]. *)
let request t ~meth ~path ?(tenant = "anon") ?(body = "") () =
  let req =
    Printf.sprintf
      "%s %s HTTP/1.1\r\nhost: 127.0.0.1\r\nx-tenant: %s\r\ncontent-length: %d\r\n\r\n%s"
      meth path tenant (String.length body) body
  in
  write_all t.fd req 0 (String.length req);
  read_response t
