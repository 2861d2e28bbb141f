// @generated by heidlc (rust backend) from media.idl -- do not edit.
use heidl_rmi::{
    marshal_value, unmarshal_incopy, DispatchKind, DispatchOutcome, IncopyArg, ObjectRef, Orb,
    RemoteObject, RmiError, RmiResult, Skeleton, SkeletonBase, ValueSerialize,
};
use heidl_wire::{Decoder, Encoder};
use std::sync::Arc;

// IDL:Media/Status:1.0
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Status {
    Stopped,
    Playing,
    Paused,
}

impl Status {
    /// Wire representation: the 0-based declaration index as a long.
    pub fn to_long(self) -> i32 {
        self as i32
    }

    /// Decodes the wire representation.
    pub fn from_long(v: i32) -> RmiResult<Self> {
        match v {
            0 => Ok(Self::Stopped),
            1 => Ok(Self::Playing),
            2 => Ok(Self::Paused),
            other => Err(RmiError::Protocol(format!(
                "bad Status discriminant {other}"
            ))),
        }
    }
}

// IDL:Media/ClipInfo:1.0
#[derive(Debug, Clone, PartialEq)]
pub struct ClipInfo {
    pub title: String,
    pub frames: i32,
    pub status: Status,
}

impl ClipInfo {
    /// Marshals the struct with begin/end structuring (paper §3.1).
    pub fn marshal(&self, enc: &mut dyn Encoder) {
        enc.begin();
        enc.put_string(&self.title);
        enc.put_long(self.frames);
        enc.put_long(self.status.to_long());
        enc.end();
    }

    /// Unmarshals a struct written by [`Self::marshal`].
    pub fn unmarshal(dec: &mut dyn Decoder) -> RmiResult<Self> {
        dec.begin()?;
        let _value = Self {
            title: dec.get_string()?,
            frames: dec.get_long()?,
            status: Status::from_long(dec.get_long()?)?,
        };
        dec.end()?;
        Ok(_value)
    }
}

// IDL:Media/Command:1.0
// The wire form is `long case-index . arm-value` — indices follow case
// declaration order, consistent between the generated marshal sides.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    JumpLabel(String),
    Frame(i32),
    Mode(Status),
    Shuttle(bool),
}

impl Command {
    /// Marshals the discriminant (case index) and the active arm.
    pub fn marshal(&self, enc: &mut dyn Encoder) {
        match self {
            Self::JumpLabel(_v) => {
                enc.put_long(0);
                enc.put_string(_v);
            }
            Self::Frame(_v) => {
                enc.put_long(1);
                enc.put_long(*_v);
            }
            Self::Mode(_v) => {
                enc.put_long(2);
                enc.put_long(_v.to_long());
            }
            Self::Shuttle(_v) => {
                enc.put_long(3);
                enc.put_bool(*_v);
            }
        }
    }

    /// Unmarshals a union written by [`Self::marshal`].
    pub fn unmarshal(dec: &mut dyn Decoder) -> RmiResult<Self> {
        match dec.get_long()? {
            0 => Ok(Self::JumpLabel(dec.get_string()?)),
            1 => Ok(Self::Frame(dec.get_long()?)),
            2 => Ok(Self::Mode(Status::from_long(dec.get_long()?)?)),
            3 => Ok(Self::Shuttle(dec.get_bool()?)),
            other => Err(RmiError::Protocol(format!(
                "bad Command discriminant {other}"
            ))),
        }
    }
}

// IDL:Media/Busy:1.0
#[derive(Debug, Clone, PartialEq)]
pub struct Busy {
    pub detail: String,
}

impl Busy {
    pub const REPO_ID: &'static str = "IDL:Media/Busy:1.0";

    /// Raises this exception from a servant method.
    pub fn to_error(&self) -> RmiError {
        RmiError::Remote { repo_id: Self::REPO_ID.to_owned(), detail: self.detail.clone() }
    }

    /// Tests whether a client-side error is this exception.
    pub fn matches(err: &RmiError) -> bool {
        matches!(err, RmiError::Remote { repo_id, .. } if repo_id == Self::REPO_ID)
    }
}

// IDL:Media/DEFAULT_VOLUME:1.0
pub const DEFAULT_VOLUME: i32 = 5;
// IDL:Media/Receiver:1.0
pub const Receiver_REPO_ID: &str = "IDL:Media/Receiver:1.0";

pub trait ReceiverServant: RemoteObject {
    fn print(
        &self,
        text: String,
    ) -> RmiResult<()>;
    fn count(
        &self,
    ) -> RmiResult<i32>;
}

pub struct ReceiverStub {
    orb: Orb,
    objref: ObjectRef,
}

impl ReceiverStub {
    pub fn new(orb: Orb, objref: ObjectRef) -> Self {
        Self { orb, objref }
    }

    pub fn object_ref(&self) -> &ObjectRef {
        &self.objref
    }

    pub fn print(
        &self,
        text: String,
    ) -> RmiResult<()> {
        let mut _call = self.orb.call(&self.objref, "print");
        _call.args().put_string(&text);
        let _options = heidl_rmi::CallOptions::default();
        self.orb.invoke_with(_call, _options)?;
        Ok(())
    }
    pub fn count(
        &self,
    ) -> RmiResult<i32> {
        let mut _call = self.orb.call(&self.objref, "count");
        let _options = heidl_rmi::CallOptions::default();
        let mut _reply = self.orb.invoke_with(_call, _options)?;
        Ok(_reply.results().get_long()?)
    }
}

pub struct ReceiverSkel {
    base: SkeletonBase,
    target: Arc<dyn ReceiverServant>,
    orb: Orb,
}

impl ReceiverSkel {
    /// Builds the skeleton chain: this skeleton plus one parent skeleton
    /// per inherited interface, in declaration order (paper §3.1).
    pub fn new(
        target: Arc<dyn ReceiverServant>,
        orb: Orb,
        kind: DispatchKind,
    ) -> Arc<dyn Skeleton> {
        let _parents: Vec<Arc<dyn Skeleton>> = vec![
        ];
        let mut _methods: Vec<&str> = Vec::new();
        _methods.push("print");
        _methods.push("count");
        Arc::new(Self {
            base: SkeletonBase::new("IDL:Media/Receiver:1.0", kind, _methods, _parents),
            target,
            orb,
        })
    }
}

impl Skeleton for ReceiverSkel {
    fn type_id(&self) -> &str {
        self.base.type_id()
    }

    fn dispatch(
        &self,
        method: &str,
        args: &mut dyn Decoder,
        reply: &mut dyn Encoder,
    ) -> RmiResult<DispatchOutcome> {
        let _ = (&args, &reply, &self.orb);
        match self.base.find(method) {
            Some(0) => {
                let text = args.get_string()?;
                self.target.print(
                    text
                )?;
                Ok(DispatchOutcome::Handled)
            }
            Some(1) => {
                let _result = self.target.count(
                )?;
                reply.put_long(_result);
                Ok(DispatchOutcome::Handled)
            }
            _ => self.base.dispatch_parents(method, args, reply),
        }
    }
}

// IDL:Media/Player:1.0
pub const Player_REPO_ID: &str = "IDL:Media/Player:1.0";

pub trait PlayerServant:
    ReceiverServant
{
    fn play(
        &self,
        clip: String,
        volume: i32,
    ) -> RmiResult<()>;
    fn stop(
        &self,
    ) -> RmiResult<()>;
    fn load(
        &self,
        source: IncopyArg,
    ) -> RmiResult<()>;
    fn state(
        &self,
    ) -> RmiResult<Status>;
    fn seek(
        &self,
        frames: Vec<i32>,
    ) -> RmiResult<()>;
    fn get_position(&self) -> RmiResult<i32>;
    fn get_title(&self) -> RmiResult<String>;
    fn set_title(&self, v: String) -> RmiResult<()>;
}

pub struct PlayerStub {
    orb: Orb,
    objref: ObjectRef,
}

impl PlayerStub {
    pub fn new(orb: Orb, objref: ObjectRef) -> Self {
        Self { orb, objref }
    }

    pub fn object_ref(&self) -> &ObjectRef {
        &self.objref
    }

    /// Base-interface view: the Rust analog of stub inheritance (paper
    /// §3.1 — "a stub ... reflects the IDL inheritance structure").
    /// Same object reference; the server dispatches up the skeleton chain.
    pub fn as_receiver(&self) -> ReceiverStub {
        ReceiverStub::new(self.orb.clone(), self.objref.clone())
    }
    pub fn play(
        &self,
        clip: String,
        volume: i32,
    ) -> RmiResult<()> {
        let mut _call = self.orb.call(&self.objref, "play");
        _call.args().put_string(&clip);
        _call.args().put_long(volume);
        let _options = heidl_rmi::CallOptions::default();
        self.orb.invoke_with(_call, _options)?;
        Ok(())
    }
    pub fn stop(
        &self,
    ) -> RmiResult<()> {
        let mut _call = self.orb.call_oneway(&self.objref, "stop");
        self.orb.invoke_oneway(_call)?;
        Ok(())
    }
    pub fn load(
        &self,
        source: &dyn ValueSerialize,
    ) -> RmiResult<()> {
        let mut _call = self.orb.call(&self.objref, "load");
        marshal_value(source, _call.args());
        let _options = heidl_rmi::CallOptions::default();
        self.orb.invoke_with(_call, _options)?;
        Ok(())
    }
    pub fn state(
        &self,
    ) -> RmiResult<Status> {
        let mut _call = self.orb.call(&self.objref, "state");
        let _options = heidl_rmi::CallOptions::builder()
            .retry_class(heidl_rmi::RetryClass::Safe)
            .deadline(std::time::Duration::from_millis(50))
            .build();
        let mut _reply = self.orb.invoke_with(_call, _options)?;
        let _v = _reply.results().get_long()?;
        Status::from_long(_v)
    }
    pub fn seek(
        &self,
        frames: Vec<i32>,
    ) -> RmiResult<()> {
        let mut _call = self.orb.call(&self.objref, "seek");
        _call.args().put_long_seq(&frames);
        let _options = heidl_rmi::CallOptions::default();
        self.orb.invoke_with(_call, _options)?;
        Ok(())
    }
    pub fn get_position(&self) -> RmiResult<i32> {
        let _call = self.orb.call(&self.objref, "_get_position");
        let _options = heidl_rmi::CallOptions::builder()
            .retry_class(heidl_rmi::RetryClass::Safe)
            .build();
        let mut _reply = self.orb.invoke_with(_call, _options)?;
        Ok(_reply.results().get_long()?)
    }
    pub fn get_title(&self) -> RmiResult<String> {
        let _call = self.orb.call(&self.objref, "_get_title");
        let _options = heidl_rmi::CallOptions::default();
        let mut _reply = self.orb.invoke_with(_call, _options)?;
        Ok(_reply.results().get_string()?)
    }
    pub fn set_title(&self, v: String) -> RmiResult<()> {
        let mut _call = self.orb.call(&self.objref, "_set_title");
        _call.args().put_string(&v);
        let _options = heidl_rmi::CallOptions::default();
        self.orb.invoke_with(_call, _options)?;
        Ok(())
    }
}

pub struct PlayerSkel {
    base: SkeletonBase,
    target: Arc<dyn PlayerServant>,
    orb: Orb,
}

impl PlayerSkel {
    /// Builds the skeleton chain: this skeleton plus one parent skeleton
    /// per inherited interface, in declaration order (paper §3.1).
    pub fn new(
        target: Arc<dyn PlayerServant>,
        orb: Orb,
        kind: DispatchKind,
    ) -> Arc<dyn Skeleton> {
        let _parents: Vec<Arc<dyn Skeleton>> = vec![
            ReceiverSkel::new(
                Arc::clone(&target) as Arc<dyn ReceiverServant>,
                orb.clone(),
                kind,
            ),
        ];
        let mut _methods: Vec<&str> = Vec::new();
        _methods.push("play");
        _methods.push("stop");
        _methods.push("load");
        _methods.push("state");
        _methods.push("seek");
        Arc::new(Self {
            base: SkeletonBase::new("IDL:Media/Player:1.0", kind, _methods, _parents),
            target,
            orb,
        })
    }
}

impl Skeleton for PlayerSkel {
    fn type_id(&self) -> &str {
        self.base.type_id()
    }

    fn dispatch(
        &self,
        method: &str,
        args: &mut dyn Decoder,
        reply: &mut dyn Encoder,
    ) -> RmiResult<DispatchOutcome> {
        let _ = (&args, &reply, &self.orb);
        if method == "_get_position" {
            let _result = self.target.get_position()?;
            reply.put_long(_result);
            return Ok(DispatchOutcome::Handled);
        }
        if method == "_get_title" {
            let _result = self.target.get_title()?;
            reply.put_string(&_result);
            return Ok(DispatchOutcome::Handled);
        }
        if method == "_set_title" {
            let _v = args.get_string()?;
            self.target.set_title(_v)?;
            return Ok(DispatchOutcome::Handled);
        }
        match self.base.find(method) {
            Some(0) => {
                let clip = args.get_string()?;
                let volume = args.get_long()?;
                self.target.play(
                    clip,
                    volume
                )?;
                Ok(DispatchOutcome::Handled)
            }
            Some(1) => {
                self.target.stop(
                )?;
                Ok(DispatchOutcome::Handled)
            }
            Some(2) => {
                let source = unmarshal_incopy(args, self.orb.values())?;
                self.target.load(
                    source
                )?;
                Ok(DispatchOutcome::Handled)
            }
            Some(3) => {
                let _result = self.target.state(
                )?;
                reply.put_long(_result.to_long());
                Ok(DispatchOutcome::Handled)
            }
            Some(4) => {
                let frames = args.get_long_seq()?;
                self.target.seek(
                    frames
                )?;
                Ok(DispatchOutcome::Handled)
            }
            _ => self.base.dispatch_parents(method, args, reply),
        }
    }
}

// IDL:Media/Library:1.0
pub const Library_REPO_ID: &str = "IDL:Media/Library:1.0";

pub trait LibraryServant: RemoteObject {
    fn info(
        &self,
        name: String,
    ) -> RmiResult<ClipInfo>;
    fn register_clip(
        &self,
        clip: ClipInfo,
    ) -> RmiResult<()>;
    fn durations(
        &self,
    ) -> RmiResult<Vec<i32>>;
    fn command(
        &self,
        cmd: Command,
    ) -> RmiResult<()>;
    fn last_command(
        &self,
    ) -> RmiResult<Command>;
    fn purchase(
        &self,
        name: String,
    ) -> RmiResult<i32>;
    /// @stream: the generated skeleton materializes this whole reply and
    /// sends it in chunked frames; for incremental production implement
    /// heidl_rmi::StreamServant and register it with Orb::export_stream.
    fn export_catalog(
        &self,
    ) -> RmiResult<String>;
}

pub struct LibraryStub {
    orb: Orb,
    objref: ObjectRef,
}

impl LibraryStub {
    pub fn new(orb: Orb, objref: ObjectRef) -> Self {
        Self { orb, objref }
    }

    pub fn object_ref(&self) -> &ObjectRef {
        &self.objref
    }

    pub fn info(
        &self,
        name: String,
    ) -> RmiResult<ClipInfo> {
        let mut _call = self.orb.call(&self.objref, "info");
        _call.args().put_string(&name);
        let _options = heidl_rmi::CallOptions::default();
        let mut _reply = self.orb.invoke_with(_call, _options)?;
        ClipInfo::unmarshal(_reply.results())
    }
    pub fn register_clip(
        &self,
        clip: ClipInfo,
    ) -> RmiResult<()> {
        let mut _call = self.orb.call(&self.objref, "register_clip");
        clip.marshal(_call.args());
        let _options = heidl_rmi::CallOptions::default();
        self.orb.invoke_with(_call, _options)?;
        Ok(())
    }
    pub fn durations(
        &self,
    ) -> RmiResult<Vec<i32>> {
        let mut _call = self.orb.call(&self.objref, "durations");
        let _options = heidl_rmi::CallOptions::builder()
            .cached(std::time::Duration::from_millis(200))
            .build();
        let mut _reply = self.orb.invoke_with(_call, _options)?;
        Ok(_reply.results().get_long_seq()?)
    }
    pub fn command(
        &self,
        cmd: Command,
    ) -> RmiResult<()> {
        let mut _call = self.orb.call(&self.objref, "command");
        cmd.marshal(_call.args());
        let _options = heidl_rmi::CallOptions::default();
        self.orb.invoke_with(_call, _options)?;
        Ok(())
    }
    pub fn last_command(
        &self,
    ) -> RmiResult<Command> {
        let mut _call = self.orb.call(&self.objref, "last_command");
        let _options = heidl_rmi::CallOptions::default();
        let mut _reply = self.orb.invoke_with(_call, _options)?;
        Command::unmarshal(_reply.results())
    }
    pub fn purchase(
        &self,
        name: String,
    ) -> RmiResult<i32> {
        let mut _call = self.orb.call(&self.objref, "purchase");
        _call.args().put_string(&name);
        let _options = heidl_rmi::CallOptions::builder()
            .retry_class(heidl_rmi::RetryClass::ExactlyOnce)
            .build();
        let mut _reply = self.orb.invoke_with(_call, _options)?;
        Ok(_reply.results().get_long()?)
    }
    pub fn export_catalog(
        &self,
    ) -> RmiResult<heidl_rmi::ReplyStream> {
        let mut _call = self.orb.call(&self.objref, "export_catalog");
        let _options = heidl_rmi::CallOptions::default();
        self.orb.invoke_stream_with(_call, _options)
    }
}

pub struct LibrarySkel {
    base: SkeletonBase,
    target: Arc<dyn LibraryServant>,
    orb: Orb,
}

impl LibrarySkel {
    /// Builds the skeleton chain: this skeleton plus one parent skeleton
    /// per inherited interface, in declaration order (paper §3.1).
    pub fn new(
        target: Arc<dyn LibraryServant>,
        orb: Orb,
        kind: DispatchKind,
    ) -> Arc<dyn Skeleton> {
        let _parents: Vec<Arc<dyn Skeleton>> = vec![
        ];
        let mut _methods: Vec<&str> = Vec::new();
        _methods.push("info");
        _methods.push("register_clip");
        _methods.push("durations");
        _methods.push("command");
        _methods.push("last_command");
        _methods.push("purchase");
        _methods.push("export_catalog");
        Arc::new(Self {
            base: SkeletonBase::new("IDL:Media/Library:1.0", kind, _methods, _parents),
            target,
            orb,
        })
    }
}

impl Skeleton for LibrarySkel {
    fn type_id(&self) -> &str {
        self.base.type_id()
    }

    fn dispatch(
        &self,
        method: &str,
        args: &mut dyn Decoder,
        reply: &mut dyn Encoder,
    ) -> RmiResult<DispatchOutcome> {
        let _ = (&args, &reply, &self.orb);
        match self.base.find(method) {
            Some(0) => {
                let name = args.get_string()?;
                let _result = self.target.info(
                    name
                )?;
                _result.marshal(reply);
                Ok(DispatchOutcome::Handled)
            }
            Some(1) => {
                let clip = ClipInfo::unmarshal(args)?;
                self.target.register_clip(
                    clip
                )?;
                Ok(DispatchOutcome::Handled)
            }
            Some(2) => {
                let _result = self.target.durations(
                )?;
                reply.put_long_seq(&_result);
                Ok(DispatchOutcome::Handled)
            }
            Some(3) => {
                let cmd = Command::unmarshal(args)?;
                self.target.command(
                    cmd
                )?;
                Ok(DispatchOutcome::Handled)
            }
            Some(4) => {
                let _result = self.target.last_command(
                )?;
                _result.marshal(reply);
                Ok(DispatchOutcome::Handled)
            }
            Some(5) => {
                let name = args.get_string()?;
                let _result = self.target.purchase(
                    name
                )?;
                reply.put_long(_result);
                Ok(DispatchOutcome::Handled)
            }
            Some(6) => {
                let _result = self.target.export_catalog(
                )?;
                reply.put_string(&_result);
                Ok(DispatchOutcome::Handled)
            }
            _ => self.base.dispatch_parents(method, args, reply),
        }
    }
}

