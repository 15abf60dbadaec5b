//! # slingshot-transport
//!
//! End-to-end traffic models for the paper's evaluation workloads:
//! iperf-style UDP constant-bit-rate flows and sinks with per-10 ms
//! accounting (Figs. 10–11, Table 2), a mini TCP Reno implementation
//! (Fig. 10's TCP series), a ping app (Fig. 9, §8.7), and an adaptive
//! videoconferencing model (Fig. 8).
//!
//! All models are engine-free state machines implementing [`UserApp`];
//! UE and app-server nodes in `slingshot-ran` host them.

#![forbid(unsafe_code)]

pub mod app;
pub mod ping;
pub mod tcp;
pub mod udp;
pub mod video;

pub use app::{IdleApp, UserApp};
pub use ping::{EchoResponder, PingApp};
pub use tcp::{TcpReceiver, TcpSender};
pub use udp::{UdpCbrSource, UdpSink};
pub use video::{VideoReceiver, VideoSender};
