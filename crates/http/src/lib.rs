//! Minimal HTTP/1.0 and HTTP/1.1 message layer for the P-HTTP cluster
//! prototype.
//!
//! Implements exactly what the paper's system needs — GET requests over
//! persistent connections with pipelining, `Content-Length`-framed
//! responses, and the dispatcher's URL *tagging* ([`Request::tag`]) — with
//! incremental push parsers ([`RequestParser`], [`ResponseParser`]) suitable
//! for nonblocking socket loops. Chunked transfer encoding is out of scope:
//! the workload is static files of known size (DESIGN.md).

pub mod message;
pub mod parser;

pub use message::{keep_alive, Headers, Request, Response, Version};
pub use parser::{ParseError, RequestParser, RequestView, ResponseParser, MAX_BODY};
